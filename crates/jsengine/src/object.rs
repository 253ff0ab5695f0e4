//! The object model: heap, objects, properties, callables.
//!
//! Everything a detector script can observe about an object — own property
//! names and their insertion order, prototype links, accessor vs data
//! properties, callability, the `toString` source of functions — is
//! represented here. The OpenWPM instrumentation (in the `openwpm` crate)
//! manipulates objects exclusively through this model, which is what makes
//! its artefacts observable to scripts in exactly the ways the paper
//! describes.

use std::rc::Rc;
use std::sync::Arc;

use crate::ast::FunctionDef;
use crate::atom::{Atom, AtomMap};
use crate::interp::{NativeFn, ScopeRef};
use crate::value::Value;

/// Index of an object in the interpreter heap.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjId(pub u32);

/// A property slot: plain data or accessor pair.
#[derive(Clone, Debug)]
pub enum Slot {
    Data(Value),
    Accessor {
        /// Getter function object, if any.
        get: Option<ObjId>,
        /// Setter function object, if any.
        set: Option<ObjId>,
    },
}

/// A property with its attributes.
#[derive(Clone, Debug)]
pub struct Property {
    pub slot: Slot,
    pub enumerable: bool,
    pub writable: bool,
}

impl Property {
    pub fn data(v: Value) -> Property {
        Property { slot: Slot::Data(v), enumerable: true, writable: true }
    }

    pub fn data_hidden(v: Value) -> Property {
        Property { slot: Slot::Data(v), enumerable: false, writable: true }
    }

    pub fn accessor(get: Option<ObjId>, set: Option<ObjId>) -> Property {
        Property { slot: Slot::Accessor { get, set }, enumerable: true, writable: true }
    }
}

/// Insertion-ordered property map (the iteration order scripts see in
/// `for`-`in` and `Object.getOwnPropertyNames`).
///
/// The side index is keyed by interned [`Atom`]s, so a lookup hashes the
/// property name at most once (through the interner's per-thread cache)
/// and probes on a `u32` — string hashing is off the proto-chain walk.
/// [`insert`](PropMap::insert) interns its key. A page-local key (one
/// that no other page shares, such as a honey property name) goes in
/// through [`insert_local`](PropMap::insert_local) instead: it is never
/// interned, and lookups that miss the index compare it by string, so the
/// interner stays bounded by the names a crawl's corpus uses.
#[derive(Clone, Debug, Default)]
pub struct PropMap {
    entries: Vec<(Arc<str>, Property)>,
    index: AtomMap<usize>,
    /// Positions of the entries added by `insert_local`. A boxed slice,
    /// not a `Vec`, because nearly every map has none and every object
    /// carries a map.
    local: Option<Box<[usize]>>,
}

impl PropMap {
    pub fn new() -> PropMap {
        PropMap::default()
    }

    fn slot_of(&self, key: &str) -> Option<usize> {
        let indexed = Atom::lookup(key).and_then(|atom| self.index.get(&atom).copied());
        indexed.or_else(|| self.local_slot(key))
    }

    fn local_slot(&self, key: &str) -> Option<usize> {
        self.local.as_deref()?.iter().copied().find(|&i| &*self.entries[i].0 == key)
    }

    pub fn get(&self, key: &str) -> Option<&Property> {
        self.slot_of(key).map(|i| &self.entries[i].1)
    }

    pub fn get_mut(&mut self, key: &str) -> Option<&mut Property> {
        match self.slot_of(key) {
            Some(i) => Some(&mut self.entries[i].1),
            None => None,
        }
    }

    pub fn contains(&self, key: &str) -> bool {
        self.slot_of(key).is_some()
    }

    /// Insert or overwrite, preserving the original insertion position on
    /// overwrite (as JavaScript engines do).
    pub fn insert(&mut self, key: Arc<str>, prop: Property) {
        if let Some(i) = self.local_slot(&key) {
            self.entries[i].1 = prop;
            return;
        }
        let atom = Atom::intern_arc(&key);
        if let Some(&i) = self.index.get(&atom) {
            self.entries[i].1 = prop;
        } else {
            self.index.insert(atom, self.entries.len());
            self.entries.push((key, prop));
        }
    }

    /// [`insert`](PropMap::insert) for a page-local key: the same order and
    /// overwrite semantics, but the key is never interned.
    pub fn insert_local(&mut self, key: Arc<str>, prop: Property) {
        if let Some(i) = self.slot_of(&key) {
            self.entries[i].1 = prop;
        } else {
            let mut local = self.local.take().map(Vec::from).unwrap_or_default();
            local.push(self.entries.len());
            self.local = Some(local.into_boxed_slice());
            self.entries.push((key, prop));
        }
    }

    /// Delete a property. Returns whether it existed. O(n) — deletes are
    /// rare (only the instrumentation clean-up path uses them).
    pub fn remove(&mut self, key: &str) -> bool {
        let Some(removed) = self.slot_of(key) else { return false };
        self.entries.remove(removed);
        // Drop the removed slot and shift every later one down.
        let keep = |i: &mut usize| match (*i).cmp(&removed) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Equal => false,
            std::cmp::Ordering::Greater => {
                *i -= 1;
                true
            }
        };
        self.index.retain(|_, i| keep(i));
        if let Some(local) = self.local.take() {
            let mut local = Vec::from(local);
            local.retain_mut(keep);
            self.local = (!local.is_empty()).then(|| local.into_boxed_slice());
        }
        true
    }

    pub fn keys(&self) -> impl Iterator<Item = &Arc<str>> {
        self.entries.iter().map(|(k, _)| k)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&Arc<str>, &Property)> {
        self.entries.iter().map(|(k, p)| (k, p))
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// What makes a function object callable.
#[derive(Clone)]
pub enum Callable {
    /// A host function implemented in Rust. `name` feeds both `fn.name` and
    /// the `function name() { [native code] }` rendering of `toString`, so a
    /// native-backed hook is indistinguishable from a pristine builtin via
    /// `toString` — the crux of the paper's stealth design (Sec. 6.1.1).
    Native { name: Arc<str>, f: NativeFn },
    /// A function defined in MiniJS source. `toString` returns the original
    /// source slice, which is how scripts detect OpenWPM's script-level
    /// wrappers (Listing 1 of the paper). `script` is the URL the defining
    /// script was served under (`"<url> > eval"` for code run by `eval`):
    /// the compiled `def` is shared by every URL serving the same body, so
    /// the closure, not the definition, carries the name its stack frames
    /// print as `fn@script:line` (the signal Sec. 3.1.4 exploits).
    Script { def: Arc<FunctionDef>, env: ScopeRef, script: Arc<str> },
}

impl std::fmt::Debug for Callable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Callable::Native { name, .. } => write!(f, "Callable::Native({name})"),
            Callable::Script { def, .. } => write!(f, "Callable::Script({})", def.name),
        }
    }
}

/// A heap object.
#[derive(Clone, Debug, Default)]
pub struct JsObject {
    /// Prototype link (`Object.getPrototypeOf`).
    pub proto: Option<ObjId>,
    /// Own properties in insertion order.
    pub props: PropMap,
    /// Set when the object is callable.
    pub call: Option<Callable>,
    /// Internal class tag: `"Object"`, `"Function"`, `"Array"`, `"Error"`,
    /// and host classes such as `"Navigator"`, `"Window"`, `"HTMLElement"`.
    /// Host accessors use it to validate `this` (illegal-invocation errors).
    pub class: &'static str,
    /// Dense backing store for arrays.
    pub elements: Option<Vec<Value>>,
    /// Host-attached opaque id; the browser crate uses it to link element
    /// objects and child-frame windows back to host-side structures.
    pub host_data: Option<u32>,
}

impl JsObject {
    pub fn plain(proto: Option<ObjId>) -> JsObject {
        JsObject { proto, class: "Object", ..Default::default() }
    }

    pub fn with_class(proto: Option<ObjId>, class: &'static str) -> JsObject {
        JsObject { proto, class, ..Default::default() }
    }

    pub fn is_callable(&self) -> bool {
        self.call.is_some()
    }

    pub fn is_array(&self) -> bool {
        self.elements.is_some()
    }
}

/// Marks a base object with no private copy in [`Heap::slot`].
const NO_COPY: u32 = u32::MAX;

/// The object heap. A plain growing arena: pages are short-lived and the
/// whole realm is dropped after a visit, so no GC is needed (this mirrors
/// how the reproduction uses one realm per page load).
///
/// A heap is a frozen base segment plus a private overlay. The base is
/// shared by every clone of the heap and never written; the first
/// [`get_mut`](Heap::get_mut) of a base object copies it into the overlay,
/// and [`alloc`](Heap::alloc) appends past the base. So cloning a heap
/// costs the overlay only, ids stay stable across clones, and a page
/// stamped from a [`freeze`](Heap::freeze)d template pays for the objects
/// it writes, not for the template's size — the basis of
/// [`Interp::clone_realm`](crate::interp::Interp::clone_realm). A heap
/// that was never frozen keeps every object past its (empty) base and
/// clones in full.
#[derive(Clone, Debug, Default)]
pub struct Heap {
    /// Frozen objects, ids `0..base.len()`, shared with every clone.
    base: Rc<[JsObject]>,
    /// Ids of the script-callable objects in `base`.
    base_scripts: Rc<[u32]>,
    /// Per base id, the index of its private copy in `copies` or
    /// [`NO_COPY`]; empty until the first write to a base object.
    slot: Vec<u32>,
    copies: Vec<JsObject>,
    /// Objects allocated since the last freeze, ids from `base.len()`.
    tail: Vec<JsObject>,
}

impl Heap {
    pub fn new() -> Heap {
        Heap::default()
    }

    pub fn alloc(&mut self, obj: JsObject) -> ObjId {
        let id = ObjId(self.len() as u32);
        self.tail.push(obj);
        id
    }

    #[inline]
    pub fn get(&self, id: ObjId) -> &JsObject {
        let i = id.0 as usize;
        match self.base.get(i) {
            Some(frozen) => match self.slot.get(i) {
                Some(&c) if c != NO_COPY => &self.copies[c as usize],
                _ => frozen,
            },
            None => &self.tail[i - self.base.len()],
        }
    }

    /// Mutable access; a base object is copied into the overlay once, on
    /// its first write.
    pub fn get_mut(&mut self, id: ObjId) -> &mut JsObject {
        let i = id.0 as usize;
        let Some(frozen) = self.base.get(i) else {
            return &mut self.tail[i - self.base.len()];
        };
        if self.slot.is_empty() {
            self.slot = vec![NO_COPY; self.base.len()];
        }
        if self.slot[i] == NO_COPY {
            self.slot[i] = self.copies.len() as u32;
            self.copies.push(frozen.clone());
        }
        &mut self.copies[self.slot[i] as usize]
    }

    /// Fold the overlay and the tail into a new shared base. Ids, property
    /// order and [`len`](Heap::len) are unchanged; clones made afterwards
    /// share every object until they write it.
    pub fn freeze(&mut self) {
        let mut objects: Vec<JsObject> = match Rc::get_mut(&mut self.base) {
            Some(owned) => owned.iter_mut().map(std::mem::take).collect(),
            None => self.base.to_vec(),
        };
        for (i, &c) in self.slot.iter().enumerate() {
            if c != NO_COPY {
                objects[i] = std::mem::take(&mut self.copies[c as usize]);
            }
        }
        objects.append(&mut self.tail);
        self.base_scripts = (0..objects.len() as u32).filter(|&i| is_script(&objects[i as usize])).collect();
        self.base = objects.into();
        self.slot = Vec::new();
        self.copies = Vec::new();
    }

    /// True when every object sits in the shared base: nothing was
    /// written or allocated since the last [`freeze`](Heap::freeze).
    pub fn is_frozen(&self) -> bool {
        self.copies.is_empty() && self.tail.is_empty()
    }

    /// Apply `f` to every script-callable object exactly once, copying
    /// base ones into the overlay (realm cloning re-binds their
    /// environments with this).
    pub fn for_each_script_mut(&mut self, mut f: impl FnMut(&mut JsObject)) {
        // Copies first: they shadow their base objects, so the base pass
        // below skips those and its own fresh copies are not revisited.
        self.copies.iter_mut().filter(|o| is_script(o)).for_each(&mut f);
        for &i in self.base_scripts.clone().iter() {
            if self.slot.get(i as usize).is_none_or(|&c| c == NO_COPY) {
                f(self.get_mut(ObjId(i)));
            }
        }
        self.tail.iter_mut().filter(|o| is_script(o)).for_each(f);
    }

    pub fn len(&self) -> usize {
        self.base.len() + self.tail.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn is_script(obj: &JsObject) -> bool {
    matches!(obj.call, Some(Callable::Script { .. }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn propmap_preserves_insertion_order() {
        let mut m = PropMap::new();
        for k in ["b", "a", "c"] {
            m.insert(Arc::from(k), Property::data(Value::Num(1.0)));
        }
        let keys: Vec<&str> = m.keys().map(|k| &**k).collect();
        assert_eq!(keys, vec!["b", "a", "c"]);
        // Overwrite keeps position.
        m.insert(Arc::from("a"), Property::data(Value::Num(2.0)));
        let keys: Vec<&str> = m.keys().map(|k| &**k).collect();
        assert_eq!(keys, vec!["b", "a", "c"]);
    }

    #[test]
    fn propmap_remove_reindexes() {
        let mut m = PropMap::new();
        for k in ["x", "y", "z"] {
            m.insert(Arc::from(k), Property::data(Value::Num(0.0)));
        }
        assert!(m.remove("y"));
        assert!(!m.remove("y"));
        assert!(m.contains("z"));
        m.insert(Arc::from("w"), Property::data(Value::Num(3.0)));
        let keys: Vec<&str> = m.keys().map(|k| &**k).collect();
        assert_eq!(keys, vec!["x", "z", "w"]);
        assert!(matches!(m.get("w").unwrap().slot, Slot::Data(Value::Num(n)) if n == 3.0));
    }

    /// Random `insert`/`insert_local`/`remove`/`get` sequences agree with a
    /// naive ordered list on key order, lookups, overwrite-in-place and
    /// removal. Two keys are only ever inserted locally, so they must stay
    /// un-interned.
    #[test]
    fn propmap_agrees_with_a_naive_ordered_list() {
        const SHARED: [&str; 5] = ["a", "b", "c", "d", "e"];
        const LOCAL_ONLY: [&str; 2] = ["_propmap_local_q", "_propmap_local_r"];
        let value_of = |p: &Property| match p.slot {
            Slot::Data(Value::Num(n)) => n,
            _ => unreachable!("only numeric data properties are inserted"),
        };
        proplite::run_cases(300, 0x9A0B, |rng| {
            let mut map = PropMap::new();
            let mut model: Vec<(String, f64)> = Vec::new();
            for step in 0..rng.usize_in(1, 40) {
                let local_only = rng.u64_in(0, 4) == 0;
                let key = match local_only {
                    true => LOCAL_ONLY[rng.usize_in(0, 2)],
                    false => SHARED[rng.usize_in(0, 5)],
                };
                let v = step as f64;
                match rng.u64_in(0, 4) {
                    0 | 1 => {
                        if local_only || rng.bool() {
                            map.insert_local(Arc::from(key), Property::data(Value::Num(v)));
                        } else {
                            map.insert(Arc::from(key), Property::data(Value::Num(v)));
                        }
                        match model.iter_mut().find(|(k, _)| k == key) {
                            Some(entry) => entry.1 = v,
                            None => model.push((key.to_owned(), v)),
                        }
                    }
                    2 => {
                        let pos = model.iter().position(|(k, _)| k == key);
                        assert_eq!(map.remove(key), pos.is_some(), "remove({key})");
                        if let Some(i) = pos {
                            model.remove(i);
                        }
                    }
                    _ => {
                        let want = model.iter().find(|(k, _)| k == key).map(|e| e.1);
                        assert_eq!(map.get(key).map(value_of), want, "get({key})");
                    }
                }
                let got: Vec<(String, f64)> = map.iter().map(|(k, p)| (k.to_string(), value_of(p))).collect();
                assert_eq!(got, model, "order and values after step {step}");
                for key in SHARED.iter().chain(&LOCAL_ONLY) {
                    let want = model.iter().find(|(k, _)| k == key).map(|e| e.1);
                    assert_eq!(map.get(key).map(value_of), want, "get({key}) after step {step}");
                    assert_eq!(map.contains(key), want.is_some());
                }
                assert_eq!(map.len(), model.len());
            }
        });
        for key in LOCAL_ONLY {
            assert_eq!(Atom::lookup(key), None, "{key} was interned");
        }
    }

    #[test]
    fn heap_alloc_get() {
        let mut h = Heap::new();
        let id = h.alloc(JsObject::plain(None));
        assert_eq!(h.get(id).class, "Object");
        h.get_mut(id).props.insert(Arc::from("k"), Property::data(Value::Bool(true)));
        assert!(h.get(id).props.contains("k"));
    }

    /// An object tagged through `host_data`, so tests can tell objects
    /// apart after they move between base, overlay and tail.
    fn tagged(tag: u32) -> JsObject {
        JsObject { host_data: Some(tag), ..JsObject::plain(None) }
    }

    fn script(tag: u32) -> JsObject {
        let def = FunctionDef {
            name: Arc::from(format!("f{tag}")),
            params: Vec::new(),
            body: Arc::from(Vec::new()),
            source: Arc::from("function(){}"),
            line: 1,
            is_arrow: false,
        };
        let env = Rc::new(std::cell::RefCell::new(crate::interp::Scope {
            vars: AtomMap::default(),
            parent: None,
            this_val: None,
        }));
        JsObject {
            call: Some(Callable::Script { def: Arc::new(def), env, script: Arc::from("t.js") }),
            ..tagged(tag)
        }
    }

    fn tags(h: &Heap) -> Vec<Option<u32>> {
        (0..h.len() as u32).map(|i| h.get(ObjId(i)).host_data).collect()
    }

    fn keys(h: &Heap, id: ObjId) -> Vec<String> {
        h.get(id).props.keys().map(|k| k.to_string()).collect()
    }

    #[test]
    fn ids_stay_stable_across_the_base_tail_boundary() {
        let mut h = Heap::new();
        let before: Vec<ObjId> = (0..3).map(|t| h.alloc(tagged(t))).collect();
        h.freeze();
        let after: Vec<ObjId> = (3..5).map(|t| h.alloc(tagged(t))).collect();
        let ids: Vec<u32> = before.iter().chain(&after).map(|id| id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert_eq!(h.len(), 5);
        assert_eq!(tags(&h), (0..5).map(Some).collect::<Vec<_>>());
        h.get_mut(ObjId(2)).host_data = Some(20);
        h.get_mut(ObjId(4)).host_data = Some(40);
        assert_eq!(tags(&h), vec![Some(0), Some(1), Some(20), Some(3), Some(40)]);
    }

    #[test]
    fn a_base_object_is_copied_once() {
        let mut h = Heap::new();
        let id = h.alloc(tagged(0));
        h.alloc(tagged(1));
        h.freeze();
        h.get_mut(id).props.insert(Arc::from("a"), Property::data(Value::Num(1.0)));
        h.get_mut(id).props.insert(Arc::from("b"), Property::data(Value::Num(2.0)));
        assert_eq!(h.copies.len(), 1);
        assert_eq!(keys(&h, id), vec!["a", "b"]);
        assert!(h.base[id.0 as usize].props.is_empty(), "the shared base was written");
    }

    #[test]
    fn writes_through_a_clone_stay_in_that_clone() {
        let mut tpl = Heap::new();
        let id = tpl.alloc(tagged(0));
        tpl.get_mut(id).props.insert(Arc::from("k"), Property::data(Value::Num(0.0)));
        tpl.freeze();
        let (mut a, b) = (tpl.clone(), tpl.clone());
        a.get_mut(id).props.insert(Arc::from("only_a"), Property::data(Value::Null));
        a.get_mut(id).host_data = Some(9);
        a.alloc(tagged(1));
        for other in [&tpl, &b] {
            assert_eq!(keys(other, id), vec!["k"]);
            assert_eq!(tags(other), vec![Some(0)]);
        }
        assert_eq!(keys(&a, id), vec!["k", "only_a"]);
        assert_eq!(tags(&a), vec![Some(9), Some(1)]);
    }

    #[test]
    fn freeze_keeps_ids_property_order_and_len() {
        let mut h = Heap::new();
        for t in 0..4 {
            let id = h.alloc(tagged(t));
            for k in ["z", "a", "m"].iter().skip(t as usize % 3) {
                h.get_mut(id).props.insert(Arc::from(*k), Property::data(Value::Num(t.into())));
            }
        }
        h.freeze();
        // Leave state in every segment: overlay copies and a tail.
        h.get_mut(ObjId(1)).props.insert(Arc::from("b"), Property::data(Value::Null));
        h.get_mut(ObjId(3)).props.remove("m");
        h.alloc(tagged(4));
        let snapshot = |h: &Heap| -> Vec<(Option<u32>, Vec<String>)> {
            (0..h.len() as u32).map(|i| (h.get(ObjId(i)).host_data, keys(h, ObjId(i)))).collect()
        };
        assert!(!h.is_frozen());
        let before = snapshot(&h);
        let shared = h.clone();
        h.freeze();
        assert_eq!(h.len(), 5);
        assert_eq!(snapshot(&h), before);
        assert!(h.is_frozen());
        // A clone made before the freeze still owns its own view.
        assert_eq!(snapshot(&shared), before);
    }

    #[test]
    fn for_each_script_mut_visits_every_script_once() {
        let mut h = Heap::new();
        h.alloc(script(0)); // base, written before the walk
        h.alloc(script(1)); // base, untouched
        h.alloc(tagged(2)); // base, not a script
        h.freeze();
        h.get_mut(ObjId(0)).props.insert(Arc::from("w"), Property::data(Value::Null));
        h.alloc(script(3)); // tail
        h.alloc(tagged(4));
        let tpl = h.clone();
        let mut seen = Vec::new();
        h.for_each_script_mut(|obj| {
            seen.push(obj.host_data.unwrap());
            obj.host_data = Some(100 + obj.host_data.unwrap());
        });
        seen.sort();
        assert_eq!(seen, vec![0, 1, 3]);
        assert_eq!(tags(&h), vec![Some(100), Some(101), Some(2), Some(103), Some(4)]);
        assert_eq!(tags(&tpl), (0..5).map(Some).collect::<Vec<_>>());
        assert_eq!(keys(&h, ObjId(0)), vec!["w"], "the overlay copy was not the one visited");
    }
}
