//! Empty. The capture walk that lived here is now `narada_detect::walk`,
//! next to the detectors it rewinds. The crate stays only because the
//! repository benchmark's own `Cargo.lock` lists it (and `narada-detect`
//! still depends on it to keep that lock file current); it goes once
//! the benchmark changes.
