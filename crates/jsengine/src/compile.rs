//! Shared script compilation: [`CompiledScript`] handles and the
//! content-hash-keyed [`CompileCache`] a [`JsCtx`](crate::JsCtx) shares
//! between its workers.
//!
//! The scan hot path used to re-lex and re-parse every script body on every
//! visit and every retry, even though the corpus collapses to far fewer
//! unique bodies than delivered scripts (the paper's Sec. 4.2 statistic —
//! 1,535,306 collected scripts dedupe heavily; `ScanReport::script_stats`
//! models it). Since the [`Program`] AST became
//! `Arc`-based it is immutable and `Send + Sync`, so one parse can serve
//! every worker thread of a crawl.
//!
//! The cache is keyed by FNV-64 of the body alone, and its artifact — the
//! parsed program, the lazily lowered bytecode of its top level (each
//! function's bytecode lives on its [`FunctionDef`](crate::ast::FunctionDef)
//! in that program), the body's hash and text — holds no URL. The URL a
//! script was served under is per-call state:
//! each [`CompiledScript`] handle pairs it with the shared artifact,
//! evaluation pushes the top-level frame under it, and every function the
//! script defines keeps it on its closure (`Callable::Script::script`), so
//! `Error.stack` frames — which the detection pipeline reads for
//! originating-script attribution — name the serving URL even though two
//! URLs share one parse. First-party scripts serve a shared body under a
//! per-site URL such as `/js/site.js`, so this is what keeps the cache at
//! one entry per unique body: 499 bodies plus the instrument for a 5K-site
//! scan (seed 42), however many sites serve them.
//!
//! The cache is mutex-striped ([`CompileCache::with_shards`]) so concurrent
//! scan workers rarely contend, and eviction-free: growth is bounded by the
//! number of unique bodies in the workload. Telemetry lands on the
//! `cache.compile.{hit,miss,bytes}` counters; those are *excluded* from the
//! snapshot digest (see `obs::metrics`), because the digest must be
//! byte-identical with the cache on and off.

use obs::fnv1a;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::ast::Program;
use crate::error::EngineError;
use crate::parser::parse;

/// What one script body compiles to, whatever URL serves it: the parse, a
/// lazily populated bytecode slot for its top level, the body's hash and
/// the body itself.
#[derive(Debug)]
struct Artifact {
    body_hash: u64,
    /// The body, compared on every hit: FNV-64 is not collision resistant,
    /// and a page able to forge a colliding body must not swap its code for
    /// a script another site serves.
    source: Box<str>,
    program: Arc<Program>,
    /// Top-level bytecode, compiled on first use by a VM-backend realm
    /// (tree-walker runs never pay for it); the same compile lowers every
    /// function in `program`.
    chunk: OnceLock<crate::bytecode::Chunk>,
}

impl Artifact {
    fn parse(src: &str) -> Result<Arc<Artifact>, EngineError> {
        Ok(Arc::new(Artifact {
            body_hash: fnv1a(src.as_bytes()),
            source: Box::from(src),
            program: Arc::new(parse(src)?),
            chunk: OnceLock::new(),
        }))
    }
}

/// A compiled-script handle: the URL this call serves the script under and
/// the body's shared artifact.
///
/// The cache hands out one handle per call and one artifact per unique
/// body, so the once-compiled bytecode in [`chunk`](CompiledScript::chunk)
/// is shared by every worker and every URL exactly like the AST is.
#[derive(Debug)]
pub struct CompiledScript {
    url: Arc<str>,
    artifact: Arc<Artifact>,
}

impl CompiledScript {
    /// The script name (URL) this handle evaluates under.
    pub fn name(&self) -> &Arc<str> {
        &self.url
    }

    /// FNV-64 of the source body.
    pub fn body_hash(&self) -> u64 {
        self.artifact.body_hash
    }

    /// The shared parsed program (the tree-walker's execution artifact).
    pub fn ast(&self) -> &Arc<Program> {
        &self.artifact.program
    }

    /// The body's top-level bytecode, compiled exactly once per artifact
    /// no matter how many realms race here (`OnceLock`: the others wait
    /// and share the winner's chunk). The same compile lowers the script's
    /// functions onto their definitions.
    pub fn chunk(&self) -> &crate::bytecode::Chunk {
        self.artifact.chunk.get_or_init(|| {
            let _ph = obs::prof::enter(&obs::prof::JS_COMPILE_BC);
            crate::bytecode::compile_program(&self.artifact.program)
        })
    }
}

/// Compile a script without consulting any cache.
pub fn compile(src: &str, name: &str) -> Result<Arc<CompiledScript>, EngineError> {
    Ok(Arc::new(CompiledScript { url: Arc::from(name), artifact: Artifact::parse(src)? }))
}

/// Point-in-time cache accounting (also mirrored onto the
/// `cache.compile.*` obs counters).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    /// Source bytes compiled and retained (misses only).
    pub bytes: u64,
    pub entries: usize,
}

type Shard = Mutex<HashMap<u64, Arc<Artifact>>>;

/// Mutex stripes per [`CompileCache::new`] cache.
const COMPILE_SHARDS: usize = 16;

/// A sharded (mutex-striped) compilation cache mapping FNV-64 of a body to
/// its shared artifact. Storing the whole artifact (not just the `Program`)
/// means the lazily compiled bytecode slot is shared across workers too:
/// the second realm to run a body under the VM backend finds the chunk
/// already populated.
pub struct CompileCache {
    shards: Box<[Shard]>,
    hits: AtomicU64,
    misses: AtomicU64,
    bytes: AtomicU64,
}

impl Default for CompileCache {
    fn default() -> CompileCache {
        CompileCache::new()
    }
}

impl CompileCache {
    /// An empty cache with 16 stripes.
    pub fn new() -> CompileCache {
        CompileCache::with_shards(COMPILE_SHARDS)
    }

    /// Build a cache with `shards` mutex stripes (clamped to ≥ 1).
    pub fn with_shards(shards: usize) -> CompileCache {
        let n = shards.max(1);
        CompileCache {
            shards: (0..n).map(|_| Shard::default()).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: u64) -> &Shard {
        &self.shards[(key as usize) % self.shards.len()]
    }

    /// A handle serving `src` under `name`: the body's cached artifact, or
    /// a fresh parse inserted on miss. Parsing happens outside the shard
    /// lock, so a pathological script cannot stall other workers;
    /// concurrent first compiles of the same body may both parse, but only
    /// the first insert is retained and counted as the miss — every loser
    /// of the race gets the winner's artifact and counts a hit, so misses
    /// equal unique bodies exactly.
    pub fn get_or_compile(&self, src: &str, name: &str) -> Result<Arc<CompiledScript>, EngineError> {
        let key = fnv1a(src.as_bytes());
        let handle = |artifact| Ok(Arc::new(CompiledScript { url: Arc::from(name), artifact }));
        let cached = self.shard(key).lock().unwrap().get(&key).cloned();
        if let Some(artifact) = cached.filter(|a| *a.source == *src) {
            let _ph = obs::prof::enter(&obs::prof::COMPILE_HIT);
            self.hits.fetch_add(1, Ordering::Relaxed);
            obs::add("cache.compile.hit", 1);
            return handle(artifact);
        }
        let _ph = obs::prof::enter(&obs::prof::COMPILE_MISS);
        let parsed = Artifact::parse(src)?;
        let winner = match self.shard(key).lock().unwrap().entry(key) {
            Entry::Occupied(e) if *e.get().source == *src => Some(e.get().clone()),
            // A hash collision: the first body keeps the slot and this one
            // runs uncached.
            Entry::Occupied(_) => None,
            Entry::Vacant(e) => {
                e.insert(parsed.clone());
                None
            }
        };
        if let Some(artifact) = winner {
            self.hits.fetch_add(1, Ordering::Relaxed);
            obs::add("cache.compile.hit", 1);
            return handle(artifact);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(src.len() as u64, Ordering::Relaxed);
        obs::add("cache.compile.miss", 1);
        obs::add("cache.compile.bytes", src.len() as u64);
        handle(parsed)
    }

    /// Number of cached unique-body artifacts.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }

    /// Drop every artifact and zero the accounting (run boundaries in
    /// ablation harnesses).
    pub fn clear(&self) {
        for s in self.shards.iter() {
            s.lock().unwrap().clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed);
    }
}

/// A script ready for evaluation: raw source (compiled on the spot, no
/// caching) or a pre-compiled shared artifact. Host APIs take
/// `impl Into<ScriptSource>` so callers opt into the cache by handing over
/// a [`CompiledScript`] instead of text — no duplicate method pairs.
#[derive(Clone)]
pub enum ScriptSource {
    Raw { source: Arc<str>, name: Arc<str> },
    Compiled(Arc<CompiledScript>),
}

impl ScriptSource {
    /// The script name (URL) evaluation will run under.
    pub fn name(&self) -> &str {
        match self {
            ScriptSource::Raw { name, .. } => name,
            ScriptSource::Compiled(cs) => cs.name(),
        }
    }
}

impl<S: Into<Arc<str>>, N: Into<Arc<str>>> From<(S, N)> for ScriptSource {
    fn from((source, name): (S, N)) -> ScriptSource {
        ScriptSource::Raw { source: source.into(), name: name.into() }
    }
}

impl From<Arc<CompiledScript>> for ScriptSource {
    fn from(cs: Arc<CompiledScript>) -> ScriptSource {
        ScriptSource::Compiled(cs)
    }
}

impl From<&Arc<CompiledScript>> for ScriptSource {
    fn from(cs: &Arc<CompiledScript>) -> ScriptSource {
        ScriptSource::Compiled(Arc::clone(cs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiled_script_round_trips_through_eval() {
        let cs = compile("var x = 2; x + 40", "t.js").unwrap();
        assert_eq!(cs.name().as_ref(), "t.js");
        assert_eq!(cs.body_hash(), fnv1a(b"var x = 2; x + 40"));
        let mut it = crate::Interp::new();
        assert_eq!(it.eval_compiled(&cs).unwrap(), crate::Value::Num(42.0));
        // The artifact is reusable: a second realm executes the same parse.
        let mut it2 = crate::Interp::new();
        assert_eq!(it2.eval_compiled(&cs).unwrap(), crate::Value::Num(42.0));
    }

    #[test]
    fn cache_hits_share_one_artifact() {
        let cache = CompileCache::with_shards(4);
        let a = cache.get_or_compile("1 + 1", "a.js").unwrap();
        let b = cache.get_or_compile("1 + 1", "a.js").unwrap();
        assert!(Arc::ptr_eq(a.ast(), b.ast()), "hits share the parse");
        assert!(std::ptr::eq(a.chunk(), b.chunk()), "hits share the bytecode");
        assert_eq!((a.name().as_ref(), b.name().as_ref()), ("a.js", "a.js"));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert_eq!(s.bytes, 5);
    }

    #[test]
    fn distinct_names_share_one_artifact() {
        // The artifact holds no URL: one body served under two URLs is one
        // entry, and each handle keeps the URL it was asked for.
        let cache = CompileCache::with_shards(4);
        let a = cache.get_or_compile("function f() { return 1; } f()", "a.js").unwrap();
        let b = cache.get_or_compile("function f() { return 1; } f()", "b.js").unwrap();
        assert!(Arc::ptr_eq(a.ast(), b.ast()));
        assert!(std::ptr::eq(a.chunk(), b.chunk()));
        assert_eq!((a.name().as_ref(), b.name().as_ref()), ("a.js", "b.js"));
        assert_eq!(cache.len(), 1);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.bytes), (1, 1, 30));
        // A different body under a known URL is its own entry.
        let c = cache.get_or_compile("function f() { return 2; } f()", "a.js").unwrap();
        assert!(!Arc::ptr_eq(a.ast(), c.ast()));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn a_colliding_hash_never_serves_another_body() {
        let cache = CompileCache::with_shards(1);
        let forged = Artifact::parse("1").unwrap();
        let key = fnv1a(b"2");
        cache.shard(key).lock().unwrap().insert(key, forged.clone());
        let cs = cache.get_or_compile("2", "victim.js").unwrap();
        assert!(!Arc::ptr_eq(cs.ast(), &forged.program));
        let mut it = crate::Interp::new();
        assert_eq!(it.eval_compiled(&cs).unwrap(), crate::Value::Num(2.0));
        assert_eq!(cache.stats().misses, 1, "the colliding body runs uncached");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn racing_realms_share_one_lazily_compiled_chunk() {
        // Two threads hitting the cold bytecode slot of one handle must end
        // up with the same chunk — the loser of the `OnceLock` race waits
        // for the winner's compile and adopts it.
        let cs = compile("function f(n) { return n + 1; } f(1)", "race.js").unwrap();
        let barrier = std::sync::Barrier::new(2);
        let (a, b) = std::thread::scope(|s| {
            let ta = s.spawn(|| {
                barrier.wait();
                cs.chunk() as *const _ as usize
            });
            let tb = s.spawn(|| {
                barrier.wait();
                cs.chunk() as *const _ as usize
            });
            (ta.join().unwrap(), tb.join().unwrap())
        });
        assert_eq!(a, b, "both realms must observe the same compiled chunk");
        assert_eq!(a, cs.chunk() as *const _ as usize);
    }

    #[test]
    fn parse_errors_are_not_cached() {
        let cache = CompileCache::with_shards(1);
        assert!(cache.get_or_compile("var = ;", "bad.js").is_err());
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().misses, 0);
    }

    #[test]
    fn clear_resets_entries_and_accounting() {
        let cache = CompileCache::with_shards(2);
        cache.get_or_compile("1", "a").unwrap();
        cache.get_or_compile("1", "a").unwrap();
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn script_source_conversions() {
        let raw: ScriptSource = ("1 + 1", "r.js").into();
        assert_eq!(raw.name(), "r.js");
        let cs = compile("2 + 2", "c.js").unwrap();
        let by_ref: ScriptSource = (&cs).into();
        assert_eq!(by_ref.name(), "c.js");
        let owned: ScriptSource = cs.into();
        assert!(matches!(owned, ScriptSource::Compiled(_)));
    }

    #[test]
    fn shared_program_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Arc<Program>>();
        assert_send_sync::<CompiledScript>();
        assert_send_sync::<CompileCache>();
    }
}
