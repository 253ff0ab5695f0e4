//! Property-name atoms: process-wide interned `u32` handles for the
//! strings the engine looks up hottest — object property names and scope
//! variable names.
//!
//! Before atoms, every property access re-hashed an owned string and every
//! scope-chain step hashed it again; on every crawl worker those
//! lookups are the JS engine's hottest shared-nothing path. An [`Atom`] is interned once and then compared and hashed as a
//! bare integer ([`AtomMap`] hashes the id with one multiply).
//!
//! The interner mirrors the [`CompileCache`](crate::compile::CompileCache)
//! idiom: a striped global table (shard picked by FNV of the name) so
//! concurrent realms on different worker threads rarely contend, fronted by
//! a per-thread positive cache so re-interning a name this thread has seen
//! takes no lock. The cache is positive only, so every [`Atom::lookup`] of
//! a name that was never interned takes a shard lock. That is the common
//! locked path: a 5K-site scan (seed 42, 2 workers) makes about 254,000
//! lookup misses, about 51 per site, nearly all for page-local honey names
//! (about 125,000 distinct names, each looked up about twice), while
//! `intern_global` runs about 4,600 times (about 2,316 names per worker).
//! Ids are append-only and never freed, so only names that a corpus shares
//! across pages may be interned: builtin and host property names, script
//! identifiers and member names. Then the id space is bounded by the
//! crawl's vocabulary (about 2,300 names for the synthetic corpus, most of
//! them Table 2's WebGL surface), not by visit count. A name drawn fresh
//! for each page, such as a honey property, goes in as a page-local key
//! ([`PropMap::insert_local`](crate::PropMap::insert_local)) and never
//! reaches the interner. Interp realms are `!Send`, but atom ids are
//! global: an atom interned on one worker names the same string on every
//! other, so maps keyed by [`Atom`] stay meaningful if a structure is ever
//! serialised across workers.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use obs::fnv1a;

/// Interner stripes; like the compile cache, enough that a worker fleet
/// rarely collides on first-intern of distinct names.
const ATOM_SHARDS: usize = 16;

/// An interned property/variable name. Two atoms are equal iff their
/// strings are equal, so maps can key on the `u32` alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Atom(u32);

struct Interner {
    /// name → id, striped by FNV of the name.
    shards: Vec<Mutex<HashMap<Arc<str>, u32>>>,
    /// id → name, append-only.
    names: RwLock<Vec<Arc<str>>>,
}

fn global() -> &'static Interner {
    static INTERNER: OnceLock<Interner> = OnceLock::new();
    INTERNER.get_or_init(|| Interner {
        shards: (0..ATOM_SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
        names: RwLock::new(Vec::new()),
    })
}

thread_local! {
    /// Per-thread positive cache (name → atom). Entries are never
    /// invalidated: atoms are global, append-only and live for the
    /// process, so a cached id can't go stale.
    static CACHE: std::cell::RefCell<HashMap<Arc<str>, Atom>> =
        std::cell::RefCell::new(HashMap::new());
}

impl Atom {
    /// Intern `name`, allocating an `Arc<str>` only on this thread's first
    /// sight of it.
    pub fn intern(name: &str) -> Atom {
        CACHE.with(|c| {
            if let Some(&a) = c.borrow().get(name) {
                return a;
            }
            let arc: Arc<str> = Arc::from(name);
            let a = intern_global(&arc);
            c.borrow_mut().insert(arc, a);
            a
        })
    }

    /// [`Atom::intern`] for callers that already hold an `Arc<str>` —
    /// shares the allocation instead of copying the string.
    pub fn intern_arc(name: &Arc<str>) -> Atom {
        CACHE.with(|c| {
            if let Some(&a) = c.borrow().get(&**name) {
                return a;
            }
            let a = intern_global(name);
            c.borrow_mut().insert(name.clone(), a);
            a
        })
    }

    /// The atom for `name` if it was ever interned, without interning it.
    /// `None` is a definitive miss: every map keyed by [`Atom`] interns on
    /// insert, so a never-interned name cannot be a key of one (a
    /// [`PropMap`](crate::PropMap) keeps page-local keys beside its atom
    /// index).
    pub fn lookup(name: &str) -> Option<Atom> {
        CACHE.with(|c| {
            if let Some(&a) = c.borrow().get(name) {
                return Some(a);
            }
            let interner = global();
            let shard = &interner.shards[fnv1a(name.as_bytes()) as usize % ATOM_SHARDS];
            let found = shard.lock().unwrap().get_key_value(name).map(|(k, &id)| (k.clone(), id));
            found.map(|(key, id)| {
                let a = Atom(id);
                c.borrow_mut().insert(key, a);
                a
            })
        })
    }

    /// The interned string.
    pub fn name(self) -> Arc<str> {
        global().names.read().unwrap()[self.0 as usize].clone()
    }

    /// How many names the process has interned so far (tests check that
    /// a crawl keeps this bounded by its corpus vocabulary).
    #[doc(hidden)]
    pub fn interned_count() -> usize {
        global().names.read().expect("atom names lock poisoned").len()
    }
}

fn intern_global(name: &Arc<str>) -> Atom {
    let interner = global();
    let shard = &interner.shards[fnv1a(name.as_bytes()) as usize % ATOM_SHARDS];
    let mut map = shard.lock().unwrap();
    if let Some(&id) = map.get(&**name) {
        return Atom(id);
    }
    // Id allocation nests the names lock inside the shard lock; the names
    // lock never takes a shard lock, so the order is acyclic.
    let mut names = interner.names.write().unwrap();
    let id = u32::try_from(names.len()).expect("atom id space exhausted");
    names.push(name.clone());
    drop(names);
    map.insert(name.clone(), id);
    Atom(id)
}

/// Hasher for atom keys: the id already is the identity, so one
/// Fibonacci multiply spreads it across the table — no byte-wise hashing.
#[derive(Default)]
pub struct AtomIdHasher(u64);

impl Hasher for AtomIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Derived `Hash` for `Atom` only calls `write_u32`; keep a
        // correct fallback anyway.
        self.0 = fnv1a(bytes);
    }

    fn write_u32(&mut self, i: u32) {
        self.0 = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A map keyed by [`Atom`] with identity hashing — the engine's property
/// indexes and scope tables.
pub type AtomMap<V> = HashMap<Atom, V, BuildHasherDefault<AtomIdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_named() {
        let a = Atom::intern("alpha-test-name");
        let b = Atom::intern("alpha-test-name");
        assert_eq!(a, b);
        assert_eq!(&*a.name(), "alpha-test-name");
        let arc: Arc<str> = Arc::from("alpha-test-name");
        assert_eq!(Atom::intern_arc(&arc), a);
    }

    #[test]
    fn lookup_never_interns() {
        assert_eq!(Atom::lookup("never-interned-name-xyzzy"), None);
        let a = Atom::intern("later-interned-name");
        assert_eq!(Atom::lookup("later-interned-name"), Some(a));
    }

    #[test]
    fn atoms_agree_across_threads() {
        let here = Atom::intern("cross-thread-name");
        let there = std::thread::spawn(|| Atom::intern("cross-thread-name"))
            .join()
            .unwrap();
        assert_eq!(here, there);
    }

    #[test]
    fn concurrent_interning_yields_unique_ids() {
        let names: Vec<String> = (0..200).map(|i| format!("stress-atom-{i}")).collect();
        let atoms: Vec<Vec<Atom>> = std::thread::scope(|s| {
            (0..4)
                .map(|_| {
                    let names = &names;
                    s.spawn(move || names.iter().map(|n| Atom::intern(n)).collect())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for per_thread in &atoms[1..] {
            assert_eq!(per_thread, &atoms[0], "same name must atomise identically everywhere");
        }
        let unique: std::collections::HashSet<Atom> = atoms[0].iter().copied().collect();
        assert_eq!(unique.len(), names.len());
    }

    #[test]
    fn atom_map_behaves_like_a_map() {
        let mut m: AtomMap<u32> = AtomMap::default();
        m.insert(Atom::intern("k1"), 1);
        m.insert(Atom::intern("k2"), 2);
        assert_eq!(m.get(&Atom::intern("k1")), Some(&1));
        assert_eq!(m.len(), 2);
    }
}
