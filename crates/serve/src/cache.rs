//! The program-keyed artifact store at the heart of `narada serve`.
//!
//! One tick-stamped LRU maps the FNV-1a digest of a library's raw
//! source bytes to its [`CompiledLib`]. A miss compiles exactly as the
//! batch path does (`narada_lang::compile`, then [`lower_program`]), so
//! served and batch MIR are identical by construction. A hit skips
//! parsing, type checking and lowering entirely.
//!
//! Everything else a job derives from the program — the screener's
//! interprocedural [`Statics`] fixpoint and the seed-generation
//! [`ApiSurface`] — lives inside the
//! [`CompiledLib`] itself, each filled lazily at most once. Derivation
//! therefore runs outside the cache mutex, and the artifacts are evicted
//! together with their program.
//!
//! Hits, misses, and evictions are tallied in [`CacheStats`] and exported
//! as `serve.cache.*` metrics so run manifests prove (not just claim)
//! warm-path behavior.

use narada_core::digest::Fnv1a;
use narada_gen::ApiSurface;
use narada_lang::hir::Program;
use narada_lang::lower::lower_program;
use narada_lang::mir::MirProgram;
use narada_lang::Diagnostics;
use narada_obs::Obs;
use narada_screen::summaries::{analyze, Statics};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// A compiled library: the cache value. The program and its MIR are
/// fixed at insertion; the derived artifacts are filled on first use.
#[derive(Debug)]
pub struct CompiledLib {
    /// FNV-1a digest of the source bytes (the cache key).
    pub digest: u64,
    /// Parsed and type-checked HIR.
    pub prog: Arc<Program>,
    /// Lowered MIR, exactly [`lower_program`]'s output.
    pub mir: Arc<MirProgram>,
    statics: OnceLock<Arc<Statics>>,
    surface: OnceLock<Arc<ApiSurface>>,
}

impl CompiledLib {
    fn new(digest: u64, prog: Program, mir: MirProgram) -> CompiledLib {
        CompiledLib {
            digest,
            prog: Arc::new(prog),
            mir: Arc::new(mir),
            statics: OnceLock::new(),
            surface: OnceLock::new(),
        }
    }

    /// The screener's interprocedural fixpoint (analyzed on first use).
    pub fn statics(&self) -> Arc<Statics> {
        Arc::clone(self.statics.get_or_init(|| Arc::new(analyze(&self.mir))))
    }

    /// The seed-generation API model (distilled on first use). Mirrors
    /// [`narada_gen::generate_suite`]'s choice: seeded from the program's
    /// own tests when it has any, from declarations otherwise.
    pub fn surface(&self) -> Arc<ApiSurface> {
        Arc::clone(self.surface.get_or_init(|| {
            Arc::new(if self.prog.tests.is_empty() {
                ApiSurface::for_program(&self.prog)
            } else {
                ApiSurface::from_tests(&self.prog, &self.mir)
            })
        }))
    }
}

/// Hit/miss/eviction tallies of the program cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Hits (whole compilation reused).
    pub program_hits: u64,
    /// Misses (source never seen, or evicted).
    pub program_misses: u64,
    /// Programs dropped by LRU pressure.
    pub evictions: u64,
}

impl CacheStats {
    /// Records the tallies as `serve.cache.program.<hits|misses>` and
    /// `serve.cache.evictions` counters into `obs`, from where they flow
    /// into run manifests.
    pub fn record(&self, obs: &Obs) {
        let m = &obs.metrics;
        m.counter("serve.cache.program.hits").add(self.program_hits);
        m.counter("serve.cache.program.misses")
            .add(self.program_misses);
        m.counter("serve.cache.evictions").add(self.evictions);
    }

    /// `self - base`, for per-job deltas against a long-lived cache.
    pub fn delta(&self, base: &CacheStats) -> CacheStats {
        CacheStats {
            program_hits: self.program_hits - base.program_hits,
            program_misses: self.program_misses - base.program_misses,
            evictions: self.evictions - base.evictions,
        }
    }
}

/// One cache-traffic event: the service drains these per job into its
/// JSONL event log, so cache behavior is auditable program-by-program
/// (which digest hit, which got evicted) rather than only in aggregate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheEvent {
    /// `hit`, `miss`, or `evict`.
    pub kind: &'static str,
    /// The program digest, rendered `{:016x}`.
    pub key: String,
}

/// One LRU slot: the compiled library plus its last-touched tick.
#[derive(Debug)]
struct Slot {
    lib: Arc<CompiledLib>,
    last_used: u64,
}

/// The program-keyed artifact store (see the module docs).
#[derive(Debug)]
pub struct ArtifactCache {
    tick: u64,
    capacity: usize,
    programs: HashMap<u64, Slot>,
    /// Running tallies; read them any time, or [`CacheStats::record`]
    /// them into an [`Obs`].
    pub stats: CacheStats,
    /// Per-program traffic since the last [`ArtifactCache::drain_events`].
    events: Vec<CacheEvent>,
}

impl Default for ArtifactCache {
    fn default() -> Self {
        ArtifactCache::with_capacity(64)
    }
}

impl ArtifactCache {
    /// A cache holding at most `capacity` programs.
    pub fn with_capacity(capacity: usize) -> ArtifactCache {
        ArtifactCache {
            tick: 0,
            capacity: capacity.max(1),
            programs: HashMap::new(),
            stats: CacheStats::default(),
            events: Vec::new(),
        }
    }

    fn event(&mut self, kind: &'static str, key: u64) {
        self.events.push(CacheEvent {
            kind,
            key: format!("{key:016x}"),
        });
    }

    /// Takes (and clears) the traffic recorded since the last drain.
    /// Jobs compile under one lock hold, so the service drains right
    /// after to attribute events per job.
    pub fn drain_events(&mut self) -> Vec<CacheEvent> {
        std::mem::take(&mut self.events)
    }

    /// The digest used as the cache key for `src`.
    pub fn program_key(src: &str) -> u64 {
        Fnv1a::digest(src.as_bytes())
    }

    /// Compiles `src` through the cache: a hit returns the stored
    /// [`CompiledLib`] untouched; a miss compiles and lowers the whole
    /// program, inserts it, and evicts the least-recently-used program
    /// if over capacity.
    pub fn compile_source(&mut self, src: &str) -> Result<Arc<CompiledLib>, Diagnostics> {
        let key = Self::program_key(src);
        self.tick += 1;
        if let Some(slot) = self.programs.get_mut(&key) {
            slot.last_used = self.tick;
            let lib = Arc::clone(&slot.lib);
            self.stats.program_hits += 1;
            self.event("hit", key);
            return Ok(lib);
        }
        self.stats.program_misses += 1;
        self.event("miss", key);

        let prog = narada_lang::compile(src)?;
        let mir = lower_program(&prog);
        let lib = Arc::new(CompiledLib::new(key, prog, mir));
        self.programs.insert(
            key,
            Slot {
                lib: Arc::clone(&lib),
                last_used: self.tick,
            },
        );
        if self.programs.len() > self.capacity {
            let victim = self
                .programs
                .iter()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(&k, _)| k)
                .expect("an over-capacity cache is non-empty");
            self.programs.remove(&victim);
            self.stats.evictions += 1;
            self.event("evict", victim);
        }
        Ok(lib)
    }

    /// Live program count.
    pub fn program_count(&self) -> usize {
        self.programs.len()
    }

    /// Configured capacity in programs — lets `stats`/`health` report
    /// occupancy against its bound instead of a bare count.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIB: &str = "
        class A { int x; void bump() { this.x = this.x + 1; } }
        class B { A a; void go() { this.a = new A(); this.a.bump(); } }
        test t { var b = new B(); b.go(); }
    ";

    #[test]
    fn program_hit_on_resubmit() {
        let mut cache = ArtifactCache::default();
        let first = cache.compile_source(LIB).unwrap();
        let again = cache.compile_source(LIB).unwrap();
        assert!(Arc::ptr_eq(&first, &again), "resubmit must reuse the Arc");
        assert_eq!(cache.stats.program_hits, 1);
        assert_eq!(cache.stats.program_misses, 1);
    }

    #[test]
    fn compiled_mir_matches_batch_lowering() {
        let mut cache = ArtifactCache::default();
        let lib = cache.compile_source(LIB).unwrap();
        let batch = lower_program(&lib.prog);
        assert_eq!(lib.mir.methods.len(), batch.methods.len());
        for (i, body) in batch.methods.iter().enumerate() {
            assert_eq!(lib.mir.methods[i].dump(), body.dump(), "method {i}");
        }
        assert_eq!(lib.mir.tests.len(), batch.tests.len());
        for (i, body) in batch.tests.iter().enumerate() {
            assert_eq!(lib.mir.tests[i].dump(), body.dump(), "test {i}");
        }
        assert_eq!(lib.mir.field_inits.len(), batch.field_inits.len());
    }

    #[test]
    fn derived_artifacts_live_and_die_with_their_program() {
        let mut cache = ArtifactCache::with_capacity(1);
        // Two jobs on one program entry share every derivation.
        let job1 = cache.compile_source(LIB).unwrap();
        let job2 = cache.compile_source(LIB).unwrap();
        assert!(Arc::ptr_eq(&job1.statics(), &job2.statics()));
        let surface = job1.surface();
        assert!(Arc::ptr_eq(&surface, &job2.surface()));

        // Evicting the program drops its artifacts: the next job derives
        // them again.
        cache.compile_source("class Other { int x; }").unwrap();
        assert_eq!(cache.stats.evictions, 1);
        let job3 = cache.compile_source(LIB).unwrap();
        assert!(!Arc::ptr_eq(&job1, &job3));
        assert!(!Arc::ptr_eq(&job1.statics(), &job3.statics()));
        assert!(!Arc::ptr_eq(&surface, &job3.surface()));
    }

    #[test]
    fn lru_evicts_oldest_program() {
        let mut cache = ArtifactCache::with_capacity(2);
        let srcs: Vec<String> = (0..3)
            .map(|i| format!("class C{i} {{ int x; void m() {{ this.x = {i}; }} }}"))
            .collect();
        for s in &srcs {
            cache.compile_source(s).unwrap();
        }
        assert_eq!(cache.program_count(), 2, "capacity 2 holds 2 programs");
        assert_eq!(cache.capacity(), 2);
        assert_eq!(cache.stats.evictions, 1);
        // The oldest (srcs[0]) was evicted; re-adding it misses.
        let misses = cache.stats.program_misses;
        cache.compile_source(&srcs[0]).unwrap();
        assert_eq!(cache.stats.program_misses, misses + 1);
        // The most recent (srcs[2]) survived both evictions.
        let hits = cache.stats.program_hits;
        cache.compile_source(&srcs[2]).unwrap();
        assert_eq!(cache.stats.program_hits, hits + 1);
    }

    #[test]
    fn cache_events_carry_digests_and_drain() {
        let mut cache = ArtifactCache::with_capacity(2);
        cache.compile_source(LIB).unwrap();
        let key = format!("{:016x}", ArtifactCache::program_key(LIB));
        let event = |kind| CacheEvent {
            kind,
            key: key.clone(),
        };
        assert_eq!(cache.drain_events(), vec![event("miss")]);
        assert!(cache.drain_events().is_empty(), "drain clears the buffer");
        cache.compile_source(LIB).unwrap();
        assert_eq!(cache.drain_events(), vec![event("hit")]);
        // Overflowing the cache reports the evicted digest.
        for i in 0..3 {
            cache
                .compile_source(&format!("class C{i} {{ int x; }}"))
                .unwrap();
        }
        assert!(
            cache.drain_events().contains(&event("evict")),
            "LIB is the least recently used"
        );
    }

    #[test]
    fn stats_delta_is_per_job() {
        let mut cache = ArtifactCache::default();
        cache.compile_source(LIB).unwrap();
        let base = cache.stats;
        cache.compile_source(LIB).unwrap();
        let d = cache.stats.delta(&base);
        assert_eq!(
            d,
            CacheStats {
                program_hits: 1,
                ..CacheStats::default()
            }
        );
    }
}
