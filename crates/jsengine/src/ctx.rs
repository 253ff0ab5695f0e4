//! [`JsCtx`]: which backend new realms run on and which compile cache
//! scripts go through, for the crawl the calling thread belongs to.
//!
//! A thread uses the context it [`entered`](JsCtx::enter), or the process
//! default when it entered none. The default runs on the backend
//! `GULLIBLE_ENGINE` names and shares one process-wide cache
//! ([`cache`]). Reading the variable here is the one documented exception
//! to the rule that only `bench::env` parses `GULLIBLE_*` names: CI runs
//! the whole `cargo test` suite on the oracle through it, and the bench
//! knob layer never runs there.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

use crate::compile::{CompileCache, CompiledScript};
use crate::error::EngineError;
use crate::vm::Engine;

/// One crawl's script-execution settings.
#[derive(Clone)]
pub struct JsCtx {
    /// Backend of every realm built under this context.
    pub engine: Engine,
    /// Compile cache shared by every thread of the crawl.
    pub cache: Arc<CompileCache>,
}

impl Default for JsCtx {
    fn default() -> JsCtx {
        JsCtx::new()
    }
}

impl JsCtx {
    /// The process default engine with a fresh, empty cache.
    pub fn new() -> JsCtx {
        JsCtx { engine: default_engine(), cache: Arc::new(CompileCache::new()) }
    }

    /// The calling thread's context: the one it entered, else the process
    /// default.
    pub fn current() -> JsCtx {
        CURRENT.with(|c| c.borrow().clone()).unwrap_or_else(|| {
            let d = process_default();
            JsCtx { engine: d.engine(), cache: Arc::clone(&d.cache) }
        })
    }

    /// Make this the calling thread's context until the guard drops.
    pub fn enter(&self) -> JsGuard {
        let prev = CURRENT.with(|c| c.replace(Some(self.clone())));
        JsGuard { prev: Some(prev), _not_send: PhantomData }
    }
}

/// Restores the previously current [`JsCtx`] on drop.
#[must_use = "the context is current only while the guard lives"]
pub struct JsGuard {
    prev: Option<Option<JsCtx>>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for JsGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            let _exited = CURRENT.with(|c| c.replace(prev));
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<JsCtx>> = const { RefCell::new(None) };
}

struct ProcessDefault {
    /// 1 = tree, 2 = vm.
    engine: AtomicU8,
    cache: Arc<CompileCache>,
}

impl ProcessDefault {
    fn engine(&self) -> Engine {
        match self.engine.load(Ordering::Relaxed) {
            1 => Engine::Tree,
            _ => Engine::Vm,
        }
    }
}

fn process_default() -> &'static ProcessDefault {
    static DEFAULT: OnceLock<ProcessDefault> = OnceLock::new();
    DEFAULT.get_or_init(|| {
        let tree = std::env::var("GULLIBLE_ENGINE")
            .is_ok_and(|v| v.trim().eq_ignore_ascii_case("tree"));
        ProcessDefault {
            engine: AtomicU8::new(if tree { 1 } else { 2 }),
            cache: Arc::new(CompileCache::new()),
        }
    })
}

/// The engine of the calling thread's context.
pub(crate) fn current_engine() -> Engine {
    CURRENT.with(|c| c.borrow().as_ref().map(|x| x.engine)).unwrap_or_else(default_engine)
}

/// The process default context's compile cache.
pub fn cache() -> &'static CompileCache {
    &process_default().cache
}

/// The process default engine: `GULLIBLE_ENGINE` (`tree` selects the
/// oracle; anything else, or unset, the VM) unless [`set_default_engine`]
/// changed it.
pub fn default_engine() -> Engine {
    process_default().engine()
}

/// Change the process default engine. Threads inside an entered
/// [`JsCtx`] are unaffected.
pub fn set_default_engine(e: Engine) {
    let v = match e {
        Engine::Tree => 1,
        Engine::Vm => 2,
    };
    process_default().engine.store(v, Ordering::Relaxed);
}

/// Compile through the current context's cache.
pub fn compile_cached(src: &str, name: &str) -> Result<Arc<CompiledScript>, EngineError> {
    CURRENT.with(|c| match c.borrow().as_ref() {
        Some(ctx) => ctx.cache.get_or_compile(src, name),
        None => process_default().cache.get_or_compile(src, name),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Interp;

    #[test]
    fn entered_engine_reaches_new_realms_and_clones_keep_theirs() {
        let tree = JsCtx { engine: Engine::Tree, ..JsCtx::new() };
        let vm = JsCtx { engine: Engine::Vm, ..JsCtx::new() };
        let template = {
            let _g = tree.enter();
            assert_eq!(JsCtx::current().engine, Engine::Tree);
            Interp::new()
        };
        assert_eq!(template.engine, Engine::Tree);
        let _g = vm.enter();
        assert_eq!(Interp::new().engine, Engine::Vm);
        assert_eq!(template.clone_realm().engine, Engine::Tree, "a clone keeps its template's engine");
    }

    #[test]
    fn guards_restore_the_previous_context() {
        let outer = JsCtx { engine: Engine::Tree, ..JsCtx::new() };
        let inner = JsCtx { engine: Engine::Vm, ..JsCtx::new() };
        let _o = outer.enter();
        {
            let _i = inner.enter();
            assert_eq!(current_engine(), Engine::Vm);
            assert!(Arc::ptr_eq(&JsCtx::current().cache, &inner.cache));
        }
        assert_eq!(current_engine(), Engine::Tree);
        assert!(Arc::ptr_eq(&JsCtx::current().cache, &outer.cache));
    }

    #[test]
    fn compile_cached_uses_the_entered_cache_only() {
        let ctx = JsCtx::new();
        let _g = ctx.enter();
        let a = compile_cached("1 + 1", "ctx.js").unwrap();
        let b = compile_cached("1 + 1", "other.js").unwrap();
        assert!(Arc::ptr_eq(a.ast(), b.ast()));
        assert_eq!((a.name().as_ref(), b.name().as_ref()), ("ctx.js", "other.js"));
        assert_eq!((ctx.cache.stats().misses, ctx.cache.stats().hits), (1, 1));

        let other = JsCtx::new();
        let _o = other.enter();
        let c = compile_cached("1 + 1", "ctx.js").unwrap();
        assert!(!Arc::ptr_eq(a.ast(), c.ast()), "another context's cache: a fresh parse");
        assert_eq!((other.cache.stats().misses, other.cache.stats().hits), (1, 0));
        assert_eq!(ctx.cache.stats().hits, 1, "the first cache must not see the lookup");
    }
}
