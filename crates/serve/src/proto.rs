//! The wire protocol: line-delimited JSON over TCP.
//!
//! Every request and response is one [`Json`] object on one line
//! (`\n`-terminated, no framing beyond that), built with the workspace's
//! zero-dependency [`narada_obs::json`] — the service adds no new wire
//! format and no new dependencies.
//!
//! Requests carry a `cmd` field:
//!
//! | `cmd`      | fields                         | response |
//! |------------|--------------------------------|----------|
//! | `ping`     | —                              | `{ok, service, jobs}` |
//! | `submit`   | `source`, `options`            | `{ok, job}` |
//! | `jobs`     | —                              | `{ok, jobs: [...]}` |
//! | `fetch`    | `job`, `wait`                  | event lines, then `{ok, job, status, report, ...}` |
//! | `stats`    | —                              | `{ok, cache: {...}, sizes: {...}, capacity: {...}, uptime_ns}` |
//! | `health`   | —                              | `{ok, status, jobs, latency, cache, workers, slow_jobs, ...}` |
//! | `shutdown` | —                              | `{ok, drained, completed}` (after the queue drains) |
//!
//! `fetch` with `wait: true` is the streaming endpoint: the server
//! writes each `{"event": ...}` progress frame (carrying
//! `narada-manifest/1` snapshots) as its own line while the job runs,
//! then the final `{"ok": ...}` object. Responses always carry `ok`;
//! errors are `{ok: false, error: "..."}`. A line that is not JSON gets
//! such an error and the connection keeps serving; a line longer than
//! `server::MAX_FRAME_BYTES` gets one and the connection closes.

use narada_core::SynthesisOptions;
use narada_detect::DetectConfig;
use narada_gen::GenOptions;
use narada_obs::Json;
use narada_vm::ScheduleStrategy;
use std::io::{BufRead, Write};

/// Everything a job needs besides the library source, wire-serializable:
/// the one detection configuration, read from the same flags by `narada
/// detect`, `corpus` and `submit`. An option-less submission reproduces a
/// flag-less `narada detect` run.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOptions {
    /// Random schedules per synthesized test (detection pass).
    pub schedules: usize,
    /// Directed attempts per potential race (confirmation pass).
    pub confirms: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Step budget per concurrent run.
    pub budget: u64,
    /// Worker threads for the job's own pipeline stages (`0` = one per
    /// core). Results are identical at any value; the server's worker
    /// pool size is a separate, equally result-neutral knob.
    pub threads: usize,
    /// Scheduler family for the detection pass.
    pub strategy: ScheduleStrategy,
    /// PCT change-point horizon (other strategies ignore it).
    pub pct_horizon: u64,
    /// Kept only so that struct literals naming `engine` (the
    /// repository benchmark's) still compile; nothing reads it. The wire
    /// form no longer carries it, and [`JobOptions::from_json`] ignores
    /// an `engine` field whatever it holds.
    pub engine: (),
    /// Kept only so that struct literals naming `explore` (the
    /// repository benchmark's) still compile; nothing reads it. The wire
    /// form no longer carries it, and [`JobOptions::from_json`] ignores
    /// an `explore` field whatever it holds.
    pub explore: (),
    /// Drop statically-discharged pairs before derivation.
    pub static_filter: bool,
    /// Rank surviving pairs by static suspicion score.
    pub static_rank: bool,
    /// Replace the seed suite with a generated one before synthesis.
    pub generate_seeds: bool,
    /// Candidate budget for `generate_seeds`.
    pub gen_budget: usize,
    /// Base seed for `generate_seeds`.
    pub gen_seed: u64,
}

impl Default for JobOptions {
    fn default() -> Self {
        JobOptions {
            schedules: 6,
            confirms: 4,
            seed: 42,
            budget: 2_000_000,
            threads: 0,
            strategy: ScheduleStrategy::Random,
            pct_horizon: 1_000,
            engine: (),
            explore: (),
            static_filter: false,
            static_rank: false,
            generate_seeds: false,
            gen_budget: 512,
            gen_seed: 0x67656e,
        }
    }
}

impl JobOptions {
    /// The synthesis options these job options select.
    pub fn synthesis_options(&self) -> SynthesisOptions {
        SynthesisOptions {
            threads: self.threads,
            static_filter: self.static_filter,
            static_rank: self.static_rank,
            generate_seeds: self.generate_seeds,
            ..SynthesisOptions::default()
        }
    }

    /// The detection and confirmation configuration.
    pub fn detect_config(&self) -> DetectConfig {
        DetectConfig {
            schedule_trials: self.schedules,
            confirm_trials: self.confirms,
            seed: self.seed,
            budget: self.budget,
            threads: self.threads,
            strategy: self.strategy.clone(),
            pct_horizon: self.pct_horizon,
            ..DetectConfig::default()
        }
    }

    /// The seed generator's options, read under `generate_seeds`.
    pub fn gen_options(&self) -> GenOptions {
        GenOptions {
            budget: self.gen_budget,
            seed: self.gen_seed,
            threads: self.threads,
            ..GenOptions::default()
        }
    }

    /// Wire form (field names match the CLI flags they mirror).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("schedules", Json::Int(self.schedules as i64))
            .with("confirms", Json::Int(self.confirms as i64))
            .with("seed", Json::Int(self.seed as i64))
            .with("budget", Json::Int(self.budget as i64))
            .with("threads", Json::Int(self.threads as i64))
            .with("strategy", Json::Str(self.strategy.label()))
            .with("pct_horizon", Json::Int(self.pct_horizon as i64))
            .with("static_filter", Json::Bool(self.static_filter))
            .with("static_rank", Json::Bool(self.static_rank))
            .with("generate_seeds", Json::Bool(self.generate_seeds))
            .with("gen_budget", Json::Int(self.gen_budget as i64))
            .with("gen_seed", Json::Int(self.gen_seed as i64))
    }

    /// Parses the wire form; absent fields keep their defaults, unknown
    /// fields are ignored (so old clients talk to new servers and vice
    /// versa). That includes `engine` and `explore`, which older clients
    /// still send: tree-walk is the only interpreter, and every job forks.
    pub fn from_json(doc: &Json) -> Result<JobOptions, String> {
        let mut o = JobOptions::default();
        let get_usize = |key: &str, cur: usize| -> Result<usize, String> {
            match doc.get(key) {
                Some(v) => v
                    .as_i64()
                    .and_then(|n| usize::try_from(n).ok())
                    .ok_or_else(|| format!("`{key}` must be a non-negative integer")),
                None => Ok(cur),
            }
        };
        let get_u64 = |key: &str, cur: u64| -> Result<u64, String> {
            match doc.get(key) {
                Some(v) => v
                    .as_i64()
                    .map(|n| n as u64)
                    .ok_or_else(|| format!("`{key}` must be an integer")),
                None => Ok(cur),
            }
        };
        let get_bool = |key: &str, cur: bool| -> Result<bool, String> {
            match doc.get(key) {
                Some(Json::Bool(b)) => Ok(*b),
                Some(_) => Err(format!("`{key}` must be a boolean")),
                None => Ok(cur),
            }
        };
        o.schedules = get_usize("schedules", o.schedules)?;
        o.confirms = get_usize("confirms", o.confirms)?;
        o.seed = get_u64("seed", o.seed)?;
        o.budget = get_u64("budget", o.budget)?;
        o.threads = get_usize("threads", o.threads)?;
        if let Some(v) = doc.get("strategy") {
            let s = v.as_str().ok_or("`strategy` must be a string")?;
            o.strategy = ScheduleStrategy::parse(s)?;
        }
        o.pct_horizon = get_u64("pct_horizon", o.pct_horizon)?;
        o.static_filter = get_bool("static_filter", o.static_filter)?;
        o.static_rank = get_bool("static_rank", o.static_rank)?;
        o.generate_seeds = get_bool("generate_seeds", o.generate_seeds)?;
        o.gen_budget = get_usize("gen_budget", o.gen_budget)?;
        o.gen_seed = get_u64("gen_seed", o.gen_seed)?;
        Ok(o)
    }
}

/// Writes one protocol frame: compact JSON, one line, flushed.
pub fn write_frame(w: &mut impl Write, msg: &Json) -> std::io::Result<()> {
    w.write_all(msg.to_compact().as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

/// Reads one protocol frame; `Ok(None)` on clean EOF.
pub fn read_frame(r: &mut impl BufRead) -> std::io::Result<Option<Json>> {
    let mut line = String::new();
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Ok(None);
        }
        if line.trim().is_empty() {
            continue;
        }
        return Json::parse(&line)
            .map(Some)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()));
    }
}

/// `{ok: false, error}` — the uniform failure response.
pub fn error_frame(msg: &str) -> Json {
    Json::obj()
        .with("ok", Json::Bool(false))
        .with("error", Json::Str(msg.to_string()))
}

/// `{ok: true, ...}` — the uniform success response base.
pub fn ok_frame() -> Json {
    Json::obj().with("ok", Json::Bool(true))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_round_trip() {
        let mut o = JobOptions {
            schedules: 3,
            confirms: 2,
            seed: 7,
            strategy: ScheduleStrategy::parse("pct:3").unwrap(),
            static_rank: true,
            ..JobOptions::default()
        };
        let back = JobOptions::from_json(&o.to_json()).unwrap();
        assert_eq!(o, back);
        o.generate_seeds = true;
        let back = JobOptions::from_json(&o.to_json()).unwrap();
        assert_eq!(o, back);
        // Older clients still send `engine` and `explore`; whatever they
        // hold, they parse to the same options.
        for (key, value) in [
            ("engine", "tree"),
            ("engine", "bytecode"),
            ("engine", "warp"),
            ("explore", "fork"),
            ("explore", "rerun"),
            ("explore", "teleport"),
        ] {
            let doc = o.to_json().with(key, Json::Str(value.into()));
            assert_eq!(JobOptions::from_json(&doc).unwrap(), o, "{key}={value}");
        }
    }

    #[test]
    fn absent_fields_keep_defaults() {
        let parsed = JobOptions::from_json(&Json::obj().with("seed", Json::Int(9))).unwrap();
        assert_eq!(parsed.seed, 9);
        assert_eq!(parsed.schedules, JobOptions::default().schedules);
    }

    #[test]
    fn bad_fields_are_rejected() {
        assert!(JobOptions::from_json(&Json::obj().with("seed", Json::Str("x".into()))).is_err());
        assert!(
            JobOptions::from_json(&Json::obj().with("strategy", Json::Str("warp".into()))).is_err()
        );
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &ok_frame().with("job", Json::Int(4))).unwrap();
        write_frame(&mut buf, &error_frame("nope")).unwrap();
        let mut r = std::io::BufReader::new(&buf[..]);
        let a = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(a.get("job").and_then(|j| j.as_i64()), Some(4));
        let b = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(b.get("error").and_then(|e| e.as_str()), Some("nope"));
        assert!(read_frame(&mut r).unwrap().is_none());
    }
}
