//! The standard library installed into every realm: `Object`, `Array`,
//! `Function.prototype`, `String.prototype`, `Error` constructors, `Math`,
//! `JSON.stringify`, `console`, `parseInt`/`parseFloat`, `eval` and friends.
//!
//! Only functionality exercised by the corpus (page scripts, detector
//! scripts, instrumentation wrappers and attack PoCs) is implemented —
//! the subset is documented per function.

use std::sync::Arc;

use crate::interp::{ErrorKind, Interp};
use crate::object::{Callable, ObjId, Property, Slot};
use crate::value::{number_to_string, Value};

/// Invoke a native function, counting the dispatch per builtin name while
/// the phase profiler runs.
///
/// This is the one funnel for builtin dispatch — [`Interp::call`] routes
/// every `Callable::Native` through here for *both* execution backends, so
/// the profiler's `prof.builtin.<name>` counters are identical whether the
/// caller was the tree-walker or the bytecode VM.
pub(crate) fn dispatch_native(
    interp: &mut Interp,
    name: &Arc<str>,
    f: &crate::interp::NativeFn,
    this: Value,
    args: &[Value],
) -> Result<Value, crate::error::Thrown> {
    if obs::prof::profiling() {
        *interp.builtin_calls.entry(Arc::clone(name)).or_insert(0) += 1;
    }
    f(interp, this, args)
}

/// Install all builtins onto the interpreter's intrinsics and global.
pub fn install(interp: &mut Interp) {
    install_function_proto(interp);
    install_object(interp);
    install_object_proto(interp);
    install_array(interp);
    install_string_proto(interp);
    install_number_proto(interp);
    install_errors(interp);
    install_math(interp);
    install_json(interp);
    install_misc_globals(interp);
}

/// Shorthand: define a native function as a non-enumerable data property.
fn method(interp: &mut Interp, target: ObjId, name: &str,
          f: impl Fn(&mut Interp, Value, &[Value]) -> Result<Value, crate::error::Thrown> + 'static) {
    let func = interp.alloc_native_fn(name, f);
    interp
        .heap
        .get_mut(target)
        .props
        .insert(Arc::from(name), Property::data_hidden(Value::Obj(func)));
}

fn arg(args: &[Value], i: usize) -> Value {
    args.get(i).cloned().unwrap_or(Value::Undefined)
}

// ------------------------------------------------------------------ Object

fn install_object(interp: &mut Interp) {
    let object_proto = interp.intrinsics.object_proto;
    let ctor = interp.alloc_native_fn("Object", move |it, _this, args| {
        Ok(match arg(args, 0) {
            Value::Obj(id) => Value::Obj(id),
            _ => Value::Obj(it.alloc_object()),
        })
    });
    interp
        .heap
        .get_mut(ctor)
        .props
        .insert(Arc::from("prototype"), Property::data_hidden(Value::Obj(object_proto)));
    interp
        .heap
        .get_mut(object_proto)
        .props
        .insert(Arc::from("constructor"), Property::data_hidden(Value::Obj(ctor)));

    method(interp, ctor, "keys", |it, _this, args| {
        let Some(id) = arg(args, 0).as_obj() else {
            return Err(it.throw_error(ErrorKind::Type, "Object.keys requires an object"));
        };
        let mut keys: Vec<Value> = Vec::new();
        if let Some(elems) = &it.heap.get(id).elements {
            for i in 0..elems.len() {
                keys.push(Value::str(i.to_string()));
            }
        }
        let own: Vec<Value> = it
            .heap
            .get(id)
            .props
            .iter()
            .filter(|(_, p)| p.enumerable)
            .map(|(k, _)| Value::Str(k.clone()))
            .collect();
        keys.extend(own);
        Ok(Value::Obj(it.alloc_array(keys)))
    });

    method(interp, ctor, "getOwnPropertyNames", |it, _this, args| {
        let Some(id) = arg(args, 0).as_obj() else {
            return Err(it.throw_error(ErrorKind::Type, "not an object"));
        };
        let mut keys: Vec<Value> = Vec::new();
        if let Some(elems) = &it.heap.get(id).elements {
            for i in 0..elems.len() {
                keys.push(Value::str(i.to_string()));
            }
            keys.push(Value::str("length"));
        }
        let own: Vec<Value> =
            it.heap.get(id).props.keys().map(|k| Value::Str(k.clone())).collect();
        keys.extend(own);
        Ok(Value::Obj(it.alloc_array(keys)))
    });

    method(interp, ctor, "getPrototypeOf", |it, _this, args| {
        let Some(id) = arg(args, 0).as_obj() else {
            return Err(it.throw_error(ErrorKind::Type, "not an object"));
        };
        Ok(match it.heap.get(id).proto {
            Some(p) => Value::Obj(p),
            None => Value::Null,
        })
    });

    method(interp, ctor, "setPrototypeOf", |it, _this, args| {
        let Some(id) = arg(args, 0).as_obj() else {
            return Err(it.throw_error(ErrorKind::Type, "not an object"));
        };
        it.heap.get_mut(id).proto = arg(args, 1).as_obj();
        Ok(arg(args, 0))
    });

    method(interp, ctor, "create", |it, _this, args| {
        let proto = arg(args, 0).as_obj();
        let obj = it.heap.alloc(crate::object::JsObject::plain(proto));
        Ok(Value::Obj(obj))
    });

    // `Object.defineProperty(obj, key, { value | get/set, enumerable, writable })`
    method(interp, ctor, "defineProperty", |it, _this, args| {
        let Some(id) = arg(args, 0).as_obj() else {
            return Err(it.throw_error(ErrorKind::Type, "not an object"));
        };
        let key = it.to_string_value(&arg(args, 1))?;
        let Some(desc) = arg(args, 2).as_obj() else {
            return Err(it.throw_error(ErrorKind::Type, "descriptor must be an object"));
        };
        let getter = it.get_prop(&Value::Obj(desc), "get")?.as_obj();
        let setter = it.get_prop(&Value::Obj(desc), "set")?.as_obj();
        let enumerable = it.get_prop(&Value::Obj(desc), "enumerable")?.truthy();
        let writable = it.get_prop(&Value::Obj(desc), "writable")?.truthy();
        let slot = if getter.is_some() || setter.is_some() {
            Slot::Accessor { get: getter, set: setter }
        } else {
            Slot::Data(it.get_prop(&Value::Obj(desc), "value")?)
        };
        it.heap
            .get_mut(id)
            .props
            .insert(Arc::from(&*key), Property { slot, enumerable, writable });
        Ok(arg(args, 0))
    });

    method(interp, ctor, "getOwnPropertyDescriptor", |it, _this, args| {
        let Some(id) = arg(args, 0).as_obj() else {
            return Err(it.throw_error(ErrorKind::Type, "not an object"));
        };
        let key = it.to_string_value(&arg(args, 1))?;
        let Some(prop) = it.heap.get(id).props.get(&key).cloned() else {
            return Ok(Value::Undefined);
        };
        let out = it.alloc_object();
        let enumerable = prop.enumerable;
        let writable = prop.writable;
        match prop.slot {
            Slot::Data(v) => {
                it.heap.get_mut(out).props.insert(Arc::from("value"), Property::data(v));
                it.heap
                    .get_mut(out)
                    .props
                    .insert(Arc::from("writable"), Property::data(Value::Bool(writable)));
            }
            Slot::Accessor { get, set } => {
                let g = get.map(Value::Obj).unwrap_or(Value::Undefined);
                let s = set.map(Value::Obj).unwrap_or(Value::Undefined);
                it.heap.get_mut(out).props.insert(Arc::from("get"), Property::data(g));
                it.heap.get_mut(out).props.insert(Arc::from("set"), Property::data(s));
            }
        }
        it.heap
            .get_mut(out)
            .props
            .insert(Arc::from("enumerable"), Property::data(Value::Bool(enumerable)));
        Ok(Value::Obj(out))
    });

    method(interp, ctor, "assign", |it, _this, args| {
        let Some(dst) = arg(args, 0).as_obj() else {
            return Err(it.throw_error(ErrorKind::Type, "target must be an object"));
        };
        for src in args.iter().skip(1) {
            let Some(sid) = src.as_obj() else { continue };
            let pairs: Vec<(Arc<str>, Value)> = it
                .heap
                .get(sid)
                .props
                .iter()
                .filter(|(_, p)| p.enumerable)
                .filter_map(|(k, p)| match &p.slot {
                    Slot::Data(v) => Some((k.clone(), v.clone())),
                    Slot::Accessor { .. } => None,
                })
                .collect();
            for (k, v) in pairs {
                it.heap.get_mut(dst).props.insert(k, Property::data(v));
            }
        }
        Ok(arg(args, 0))
    });

    // freeze/isFrozen: recorded but not enforced (corpus only probes them).
    method(interp, ctor, "freeze", |_it, _this, args| Ok(arg(args, 0)));

    interp.define_global(Arc::from("Object"), Value::Obj(ctor));
}

fn install_object_proto(interp: &mut Interp) {
    let proto = interp.intrinsics.object_proto;
    method(interp, proto, "hasOwnProperty", |it, this, args| {
        let key = it.to_string_value(&arg(args, 0))?;
        let Some(id) = this.as_obj() else { return Ok(Value::Bool(false)) };
        let obj = it.heap.get(id);
        if obj.props.contains(&key) {
            return Ok(Value::Bool(true));
        }
        if let Some(elems) = &obj.elements {
            if let Ok(i) = key.parse::<usize>() {
                return Ok(Value::Bool(i < elems.len()));
            }
        }
        Ok(Value::Bool(false))
    });
    method(interp, proto, "toString", |it, this, _args| {
        let class = match this.as_obj() {
            Some(id) => it.heap.get(id).class,
            None => "Object",
        };
        Ok(Value::str(format!("[object {class}]")))
    });
    method(interp, proto, "valueOf", |_it, this, _args| Ok(this));
    method(interp, proto, "isPrototypeOf", |it, this, args| {
        let Some(target) = arg(args, 0).as_obj() else { return Ok(Value::Bool(false)) };
        let Some(me) = this.as_obj() else { return Ok(Value::Bool(false)) };
        let mut cur = it.heap.get(target).proto;
        while let Some(p) = cur {
            if p == me {
                return Ok(Value::Bool(true));
            }
            cur = it.heap.get(p).proto;
        }
        Ok(Value::Bool(false))
    });
    method(interp, proto, "propertyIsEnumerable", |it, this, args| {
        let key = it.to_string_value(&arg(args, 0))?;
        let Some(id) = this.as_obj() else { return Ok(Value::Bool(false)) };
        Ok(Value::Bool(
            it.heap.get(id).props.get(&key).map(|p| p.enumerable).unwrap_or(false),
        ))
    });
    // Legacy getter introspection — used by Goßen-style tamper checks.
    method(interp, proto, "__lookupGetter__", |it, this, args| {
        let key = it.to_string_value(&arg(args, 0))?;
        let Some(start) = this.as_obj() else { return Ok(Value::Undefined) };
        let mut cur = Some(start);
        while let Some(id) = cur {
            let obj = it.heap.get(id);
            if let Some(p) = obj.props.get(&key) {
                if let Slot::Accessor { get: Some(g), .. } = p.slot {
                    return Ok(Value::Obj(g));
                }
                return Ok(Value::Undefined);
            }
            cur = obj.proto;
        }
        Ok(Value::Undefined)
    });
}

// ---------------------------------------------------------------- Function

fn install_function_proto(interp: &mut Interp) {
    let proto = interp.intrinsics.function_proto;
    // `Function.prototype.toString`: verbatim source for script functions,
    // `[native code]` body for natives. This is the paper's Listing 1.
    method(interp, proto, "toString", |it, this, _args| {
        let Some(id) = this.as_obj() else {
            return Err(it.throw_error(ErrorKind::Type, "not a function"));
        };
        match &it.heap.get(id).call {
            Some(Callable::Script { def, .. }) => Ok(Value::Str(def.source.clone())),
            Some(Callable::Native { name, .. }) => {
                Ok(Value::str(format!("function {name}() {{\n    [native code]\n}}")))
            }
            None => Err(it.throw_error(ErrorKind::Type, "not a function")),
        }
    });
    method(interp, proto, "call", |it, this, args| {
        let new_this = arg(args, 0);
        let rest: Vec<Value> = args.iter().skip(1).cloned().collect();
        it.call(this, new_this, &rest)
    });
    method(interp, proto, "apply", |it, this, args| {
        let new_this = arg(args, 0);
        let rest: Vec<Value> = match arg(args, 1) {
            Value::Obj(id) => it.heap.get(id).elements.clone().unwrap_or_default(),
            _ => Vec::new(),
        };
        it.call(this, new_this, &rest)
    });
    method(interp, proto, "bind", |it, this, args| {
        let bound_this = arg(args, 0);
        let bound_args: Vec<Value> = args.iter().skip(1).cloned().collect();
        let target = this.clone();
        let name = match this.as_obj() {
            Some(id) => match &it.heap.get(id).call {
                Some(Callable::Native { name, .. }) => format!("bound {name}"),
                Some(Callable::Script { def, .. }) => format!("bound {}", def.name),
                None => "bound".to_owned(),
            },
            None => "bound".to_owned(),
        };
        let f = it.alloc_native_fn(&name, move |it2, _this2, call_args| {
            let mut all = bound_args.clone();
            all.extend_from_slice(call_args);
            it2.call(target.clone(), bound_this.clone(), &all)
        });
        Ok(Value::Obj(f))
    });
}

// ------------------------------------------------------------------- Array

fn install_array(interp: &mut Interp) {
    let proto = interp.intrinsics.array_proto;
    let ctor = interp.alloc_native_fn("Array", |it, _this, args| {
        if args.len() == 1 {
            if let Value::Num(n) = args[0] {
                return Ok(Value::Obj(
                    it.alloc_array(vec![Value::Undefined; n.max(0.0) as usize]),
                ));
            }
        }
        Ok(Value::Obj(it.alloc_array(args.to_vec())))
    });
    interp
        .heap
        .get_mut(ctor)
        .props
        .insert(Arc::from("prototype"), Property::data_hidden(Value::Obj(proto)));
    method(interp, ctor, "isArray", |it, _this, args| {
        Ok(Value::Bool(
            arg(args, 0).as_obj().map(|id| it.heap.get(id).is_array()).unwrap_or(false),
        ))
    });
    interp.define_global(Arc::from("Array"), Value::Obj(ctor));

    fn with_elems<R>(
        it: &mut Interp,
        this: &Value,
        f: impl FnOnce(&mut Vec<Value>) -> R,
    ) -> Result<R, crate::error::Thrown> {
        let Some(id) = this.as_obj() else {
            return Err(it.throw_error(ErrorKind::Type, "not an array"));
        };
        let Some(elems) = &mut it.heap.get_mut(id).elements else {
            return Err(it.throw_error(ErrorKind::Type, "not an array"));
        };
        Ok(f(elems))
    }

    method(interp, proto, "push", |it, this, args| {
        with_elems(it, &this, |e| {
            e.extend_from_slice(args);
            Value::Num(e.len() as f64)
        })
    });
    method(interp, proto, "pop", |it, this, _args| {
        with_elems(it, &this, |e| e.pop().unwrap_or(Value::Undefined))
    });
    method(interp, proto, "shift", |it, this, _args| {
        with_elems(it, &this, |e| {
            if e.is_empty() {
                Value::Undefined
            } else {
                e.remove(0)
            }
        })
    });
    method(interp, proto, "indexOf", |it, this, args| {
        let needle = arg(args, 0);
        with_elems(it, &this, |e| {
            Value::Num(
                e.iter().position(|v| v.strict_eq(&needle)).map(|i| i as f64).unwrap_or(-1.0),
            )
        })
    });
    method(interp, proto, "includes", |it, this, args| {
        let needle = arg(args, 0);
        with_elems(it, &this, |e| Value::Bool(e.iter().any(|v| v.strict_eq(&needle))))
    });
    method(interp, proto, "join", |it, this, args| {
        let sep = match arg(args, 0) {
            Value::Undefined => Arc::from(","),
            other => it.to_string_value(&other)?,
        };
        let items = with_elems(it, &this, |e| e.clone())?;
        let mut parts = Vec::with_capacity(items.len());
        for v in &items {
            if v.is_nullish() {
                parts.push(String::new());
            } else {
                parts.push(it.to_string_value(v)?.to_string());
            }
        }
        Ok(Value::str(parts.join(&sep)))
    });
    method(interp, proto, "slice", |it, this, args| {
        let items = with_elems(it, &this, |e| e.clone())?;
        let len = items.len() as i64;
        let norm = |v: Value, default: i64| -> i64 {
            match v {
                Value::Undefined => default,
                other => {
                    let n = other.to_number() as i64;
                    if n < 0 {
                        (len + n).max(0)
                    } else {
                        n.min(len)
                    }
                }
            }
        };
        let start = norm(arg(args, 0), 0) as usize;
        let end = norm(arg(args, 1), len) as usize;
        let out = if start < end { items[start..end].to_vec() } else { Vec::new() };
        Ok(Value::Obj(it.alloc_array(out)))
    });
    method(interp, proto, "concat", |it, this, args| {
        let mut items = with_elems(it, &this, |e| e.clone())?;
        for a in args {
            match a.as_obj().map(|id| it.heap.get(id).elements.clone()) {
                Some(Some(more)) => items.extend(more),
                _ => items.push(a.clone()),
            }
        }
        Ok(Value::Obj(it.alloc_array(items)))
    });
    method(interp, proto, "forEach", |it, this, args| {
        let cb = arg(args, 0);
        let items = with_elems(it, &this, |e| e.clone())?;
        for (i, item) in items.into_iter().enumerate() {
            it.call(cb.clone(), Value::Undefined, &[item, Value::Num(i as f64), this.clone()])?;
        }
        Ok(Value::Undefined)
    });
    method(interp, proto, "map", |it, this, args| {
        let cb = arg(args, 0);
        let items = with_elems(it, &this, |e| e.clone())?;
        let mut out = Vec::with_capacity(items.len());
        for (i, item) in items.into_iter().enumerate() {
            out.push(it.call(cb.clone(), Value::Undefined, &[item, Value::Num(i as f64)])?);
        }
        Ok(Value::Obj(it.alloc_array(out)))
    });
    method(interp, proto, "filter", |it, this, args| {
        let cb = arg(args, 0);
        let items = with_elems(it, &this, |e| e.clone())?;
        let mut out = Vec::new();
        for (i, item) in items.into_iter().enumerate() {
            if it
                .call(cb.clone(), Value::Undefined, &[item.clone(), Value::Num(i as f64)])?
                .truthy()
            {
                out.push(item);
            }
        }
        Ok(Value::Obj(it.alloc_array(out)))
    });
    method(interp, proto, "some", |it, this, args| {
        let cb = arg(args, 0);
        let items = with_elems(it, &this, |e| e.clone())?;
        for (i, item) in items.into_iter().enumerate() {
            if it.call(cb.clone(), Value::Undefined, &[item, Value::Num(i as f64)])?.truthy() {
                return Ok(Value::Bool(true));
            }
        }
        Ok(Value::Bool(false))
    });
    method(interp, proto, "sort", |it, this, _args| {
        // String sort only (sufficient for the corpus: sorting property
        // name lists in template attacks).
        let mut items = with_elems(it, &this, |e| e.clone())?;
        let mut keyed: Vec<(Arc<str>, Value)> = Vec::with_capacity(items.len());
        for v in items.drain(..) {
            let k = it.to_string_value(&v)?;
            keyed.push((k, v));
        }
        keyed.sort_by(|a, b| a.0.cmp(&b.0));
        let sorted: Vec<Value> = keyed.into_iter().map(|(_, v)| v).collect();
        with_elems(it, &this, |e| *e = sorted)?;
        Ok(this)
    });
}

// ------------------------------------------------------------------ String

fn install_string_proto(interp: &mut Interp) {
    let proto = interp.intrinsics.string_proto;

    fn this_str(it: &mut Interp, this: &Value) -> Result<Arc<str>, crate::error::Thrown> {
        it.to_string_value(this)
    }

    method(interp, proto, "indexOf", |it, this, args| {
        let s = this_str(it, &this)?;
        let needle = it.to_string_value(&arg(args, 0))?;
        Ok(Value::Num(match s.find(&*needle) {
            Some(byte) => s[..byte].chars().count() as f64,
            None => -1.0,
        }))
    });
    method(interp, proto, "lastIndexOf", |it, this, args| {
        let s = this_str(it, &this)?;
        let needle = it.to_string_value(&arg(args, 0))?;
        Ok(Value::Num(match s.rfind(&*needle) {
            Some(byte) => s[..byte].chars().count() as f64,
            None => -1.0,
        }))
    });
    method(interp, proto, "includes", |it, this, args| {
        let s = this_str(it, &this)?;
        let needle = it.to_string_value(&arg(args, 0))?;
        Ok(Value::Bool(s.contains(&*needle)))
    });
    method(interp, proto, "startsWith", |it, this, args| {
        let s = this_str(it, &this)?;
        let needle = it.to_string_value(&arg(args, 0))?;
        Ok(Value::Bool(s.starts_with(&*needle)))
    });
    method(interp, proto, "endsWith", |it, this, args| {
        let s = this_str(it, &this)?;
        let needle = it.to_string_value(&arg(args, 0))?;
        Ok(Value::Bool(s.ends_with(&*needle)))
    });
    method(interp, proto, "toLowerCase", |it, this, _args| {
        let s = this_str(it, &this)?;
        Ok(Value::str(s.to_lowercase()))
    });
    method(interp, proto, "toUpperCase", |it, this, _args| {
        let s = this_str(it, &this)?;
        Ok(Value::str(s.to_uppercase()))
    });
    method(interp, proto, "trim", |it, this, _args| {
        let s = this_str(it, &this)?;
        Ok(Value::str(s.trim()))
    });
    method(interp, proto, "charAt", |it, this, args| {
        let s = this_str(it, &this)?;
        let i = arg(args, 0).to_number().max(0.0) as usize;
        Ok(Value::str(s.chars().nth(i).map(|c| c.to_string()).unwrap_or_default()))
    });
    method(interp, proto, "charCodeAt", |it, this, args| {
        let s = this_str(it, &this)?;
        let i = arg(args, 0).to_number().max(0.0) as usize;
        Ok(match s.chars().nth(i) {
            Some(c) => Value::Num(c as u32 as f64),
            None => Value::Num(f64::NAN),
        })
    });
    method(interp, proto, "slice", |it, this, args| {
        let s = this_str(it, &this)?;
        let chars: Vec<char> = s.chars().collect();
        let len = chars.len() as i64;
        let norm = |v: Value, default: i64| -> i64 {
            match v {
                Value::Undefined => default,
                other => {
                    let n = other.to_number() as i64;
                    if n < 0 {
                        (len + n).max(0)
                    } else {
                        n.min(len)
                    }
                }
            }
        };
        let start = norm(arg(args, 0), 0) as usize;
        let end = norm(arg(args, 1), len) as usize;
        let out: String = if start < end { chars[start..end].iter().collect() } else { String::new() };
        Ok(Value::str(out))
    });
    method(interp, proto, "substring", |it, this, args| {
        let s = this_str(it, &this)?;
        let chars: Vec<char> = s.chars().collect();
        let len = chars.len() as f64;
        let a = arg(args, 0).to_number().clamp(0.0, len) as usize;
        let b = match arg(args, 1) {
            Value::Undefined => chars.len(),
            v => v.to_number().clamp(0.0, len) as usize,
        };
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        Ok(Value::str(chars[lo..hi].iter().collect::<String>()))
    });
    method(interp, proto, "split", |it, this, args| {
        let s = this_str(it, &this)?;
        let out: Vec<Value> = match arg(args, 0) {
            Value::Undefined => vec![Value::Str(s)],
            sep => {
                let sep = it.to_string_value(&sep)?;
                if sep.is_empty() {
                    s.chars().map(|c| Value::str(c.to_string())).collect()
                } else {
                    s.split(&*sep).map(Value::str).collect()
                }
            }
        };
        Ok(Value::Obj(it.alloc_array(out)))
    });
    // `replace` with string pattern, first occurrence (no regex).
    method(interp, proto, "replace", |it, this, args| {
        let s = this_str(it, &this)?;
        let pat = it.to_string_value(&arg(args, 0))?;
        let rep = it.to_string_value(&arg(args, 1))?;
        Ok(Value::str(s.replacen(&*pat, &rep, 1)))
    });
    method(interp, proto, "repeat", |it, this, args| {
        let s = this_str(it, &this)?;
        let n = arg(args, 0).to_number().max(0.0) as usize;
        if n > 10_000 {
            return Err(it.throw_error(ErrorKind::Range, "repeat count too large"));
        }
        Ok(Value::str(s.repeat(n)))
    });
    method(interp, proto, "concat", |it, this, args| {
        let mut s = this_str(it, &this)?.to_string();
        for a in args {
            s.push_str(&it.to_string_value(a)?);
        }
        Ok(Value::str(s))
    });
    method(interp, proto, "toString", |it, this, _args| {
        Ok(Value::Str(this_str(it, &this)?))
    });

    let ctor = interp.alloc_native_fn("String", |it, _this, args| {
        Ok(match args.first() {
            None => Value::str(""),
            Some(v) => Value::Str(it.to_string_value(v)?),
        })
    });
    method(interp, ctor, "fromCharCode", |_it, _this, args| {
        let s: String = args
            .iter()
            .map(|v| char::from_u32(v.to_number() as u32).unwrap_or('\u{FFFD}'))
            .collect();
        Ok(Value::str(s))
    });
    interp
        .heap
        .get_mut(ctor)
        .props
        .insert(Arc::from("prototype"), Property::data_hidden(Value::Obj(proto)));
    interp.define_global(Arc::from("String"), Value::Obj(ctor));
}

// ------------------------------------------------------------------ Number

fn install_number_proto(interp: &mut Interp) {
    let proto = interp.intrinsics.number_proto;
    method(interp, proto, "toString", |it, this, args| {
        let n = it.to_number_value(&this)?;
        match arg(args, 0) {
            Value::Undefined => Ok(Value::str(number_to_string(n))),
            radix => {
                let r = radix.to_number() as u32;
                if !(2..=36).contains(&r) {
                    return Err(it.throw_error(ErrorKind::Range, "radix must be 2..36"));
                }
                Ok(Value::str(format_radix(n as i64, r)))
            }
        }
    });
    method(interp, proto, "toFixed", |it, this, args| {
        let n = it.to_number_value(&this)?;
        let digits = arg(args, 0).to_number().max(0.0) as usize;
        Ok(Value::str(format!("{n:.digits$}")))
    });
    let ctor = interp.alloc_native_fn("Number", |_it, _this, args| {
        Ok(Value::Num(arg(args, 0).to_number()))
    });
    method(interp, ctor, "isInteger", |_it, _this, args| {
        Ok(Value::Bool(matches!(arg(args, 0), Value::Num(n) if n == n.trunc() && n.is_finite())))
    });
    interp
        .heap
        .get_mut(ctor)
        .props
        .insert(Arc::from("prototype"), Property::data_hidden(Value::Obj(proto)));
    interp.define_global(Arc::from("Number"), Value::Obj(ctor));

    let bool_ctor = interp.alloc_native_fn("Boolean", |_it, _this, args| {
        Ok(Value::Bool(arg(args, 0).truthy()))
    });
    interp.define_global(Arc::from("Boolean"), Value::Obj(bool_ctor));
}

fn format_radix(mut n: i64, radix: u32) -> String {
    if n == 0 {
        return "0".to_owned();
    }
    let neg = n < 0;
    n = n.abs();
    let digits = b"0123456789abcdefghijklmnopqrstuvwxyz";
    let mut out = Vec::new();
    while n > 0 {
        out.push(digits[(n % radix as i64) as usize]);
        n /= radix as i64;
    }
    if neg {
        out.push(b'-');
    }
    out.reverse();
    String::from_utf8(out).unwrap()
}

// ------------------------------------------------------------------ Errors

fn install_errors(interp: &mut Interp) {
    let cases: Vec<(&str, ObjId, ErrorKind)> = vec![
        ("Error", interp.intrinsics.error_proto, ErrorKind::Error),
        ("TypeError", interp.intrinsics.type_error_proto, ErrorKind::Type),
        ("ReferenceError", interp.intrinsics.reference_error_proto, ErrorKind::Reference),
        ("RangeError", interp.intrinsics.range_error_proto, ErrorKind::Range),
    ];
    for (name, proto, kind) in cases {
        interp
            .heap
            .get_mut(proto)
            .props
            .insert(Arc::from("name"), Property::data_hidden(Value::str(name)));
        interp
            .heap
            .get_mut(proto)
            .props
            .insert(Arc::from("message"), Property::data_hidden(Value::str("")));
        let ctor = interp.alloc_native_fn(name, move |it, _this, args| {
            let msg = match args.first() {
                Some(Value::Undefined) | None => Arc::from(""),
                Some(v) => it.to_string_value(v)?,
            };
            Ok(Value::Obj(it.alloc_error(kind, &msg)))
        });
        interp
            .heap
            .get_mut(ctor)
            .props
            .insert(Arc::from("prototype"), Property::data_hidden(Value::Obj(proto)));
        interp
            .heap
            .get_mut(proto)
            .props
            .insert(Arc::from("constructor"), Property::data_hidden(Value::Obj(ctor)));
        interp.define_global(Arc::from(name), Value::Obj(ctor));
    }
    let error_proto = interp.intrinsics.error_proto;
    method(interp, error_proto, "toString", |it, this, _args| {
        let name = it.get_prop(&this, "name")?;
        let msg = it.get_prop(&this, "message")?;
        let name = it.to_string_value(&name)?;
        let msg = it.to_string_value(&msg)?;
        Ok(Value::str(if msg.is_empty() {
            name.to_string()
        } else {
            format!("{name}: {msg}")
        }))
    });
}

// -------------------------------------------------------------------- Math

fn install_math(interp: &mut Interp) {
    let math = interp.alloc_object_with_class("Math");
    method(interp, math, "floor", |_it, _this, args| {
        Ok(Value::Num(arg(args, 0).to_number().floor()))
    });
    method(interp, math, "ceil", |_it, _this, args| {
        Ok(Value::Num(arg(args, 0).to_number().ceil()))
    });
    method(interp, math, "round", |_it, _this, args| {
        Ok(Value::Num(arg(args, 0).to_number().round()))
    });
    method(interp, math, "abs", |_it, _this, args| {
        Ok(Value::Num(arg(args, 0).to_number().abs()))
    });
    method(interp, math, "max", |_it, _this, args| {
        Ok(Value::Num(args.iter().map(|v| v.to_number()).fold(f64::NEG_INFINITY, f64::max)))
    });
    method(interp, math, "min", |_it, _this, args| {
        Ok(Value::Num(args.iter().map(|v| v.to_number()).fold(f64::INFINITY, f64::min)))
    });
    method(interp, math, "pow", |_it, _this, args| {
        Ok(Value::Num(arg(args, 0).to_number().powf(arg(args, 1).to_number())))
    });
    method(interp, math, "sqrt", |_it, _this, args| {
        Ok(Value::Num(arg(args, 0).to_number().sqrt()))
    });
    // Deterministic xorshift64* PRNG: reproducible crawls need reproducible
    // `Math.random` (detector scripts use it for event-id generation).
    method(interp, math, "random", |it, _this, _args| {
        let mut x = it.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        it.rng_state = x;
        let bits = x.wrapping_mul(0x2545F4914F6CDD1D) >> 11;
        Ok(Value::Num(bits as f64 / (1u64 << 53) as f64))
    });
    interp.define_global(Arc::from("Math"), Value::Obj(math));
}

// -------------------------------------------------------------------- JSON

fn install_json(interp: &mut Interp) {
    let json = interp.alloc_object_with_class("JSON");
    method(interp, json, "stringify", |it, _this, args| {
        let mut out = String::new();
        stringify(it, &arg(args, 0), &mut out, 0)?;
        Ok(Value::str(out))
    });
    interp.define_global(Arc::from("JSON"), Value::Obj(json));
}

fn stringify(
    it: &mut Interp,
    v: &Value,
    out: &mut String,
    depth: usize,
) -> Result<(), crate::error::Thrown> {
    if depth > 32 {
        return Err(it.throw_error(ErrorKind::Type, "cyclic or too-deep structure"));
    }
    match v {
        Value::Undefined => out.push_str("null"),
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => out.push_str(&number_to_string(*n)),
        Value::Str(s) => {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    '\r' => out.push_str("\\r"),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        Value::Obj(id) => {
            if let Some(elems) = it.heap.get(*id).elements.clone() {
                out.push('[');
                for (i, e) in elems.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    stringify(it, e, out, depth + 1)?;
                }
                out.push(']');
            } else if it.heap.get(*id).is_callable() {
                out.push_str("null");
            } else {
                out.push('{');
                let pairs: Vec<(Arc<str>, Value)> = it
                    .heap
                    .get(*id)
                    .props
                    .iter()
                    .filter(|(_, p)| p.enumerable)
                    .filter_map(|(k, p)| match &p.slot {
                        Slot::Data(v) => Some((k.clone(), v.clone())),
                        Slot::Accessor { .. } => None,
                    })
                    .collect();
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    stringify(it, &Value::Str(k.clone()), out, depth + 1)?;
                    out.push(':');
                    stringify(it, v, out, depth + 1)?;
                }
                out.push('}');
            }
        }
    }
    Ok(())
}

// -------------------------------------------------------------------- misc

fn install_misc_globals(interp: &mut Interp) {
    let g = interp.global;
    interp
        .heap
        .get_mut(g)
        .props
        .insert(Arc::from("NaN"), Property::data_hidden(Value::Num(f64::NAN)));
    interp
        .heap
        .get_mut(g)
        .props
        .insert(Arc::from("Infinity"), Property::data_hidden(Value::Num(f64::INFINITY)));
    interp
        .heap
        .get_mut(g)
        .props
        .insert(Arc::from("globalThis"), Property::data_hidden(Value::Obj(g)));

    method(interp, g, "parseInt", |it, _this, args| {
        let s = it.to_string_value(&arg(args, 0))?;
        let radix = match arg(args, 1) {
            Value::Undefined => 10,
            v => v.to_number() as u32,
        };
        let t = s.trim();
        let (neg, t) = match t.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, t.strip_prefix('+').unwrap_or(t)),
        };
        let (radix, t) = if radix == 16 || ((radix == 10 || radix == 0) && (t.starts_with("0x") || t.starts_with("0X"))) {
            (16, t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")).unwrap_or(t))
        } else {
            (if radix == 0 { 10 } else { radix }, t)
        };
        let digits: String =
            t.chars().take_while(|c| c.is_digit(radix.clamp(2, 36))).collect();
        if digits.is_empty() {
            return Ok(Value::Num(f64::NAN));
        }
        let v = i64::from_str_radix(&digits, radix.clamp(2, 36)).unwrap_or(0) as f64;
        Ok(Value::Num(if neg { -v } else { v }))
    });
    method(interp, g, "parseFloat", |it, _this, args| {
        let s = it.to_string_value(&arg(args, 0))?;
        let t = s.trim();
        let end = t
            .char_indices()
            .take_while(|(i, c)| {
                c.is_ascii_digit()
                    || *c == '.'
                    || ((*c == '-' || *c == '+') && *i == 0)
                    || *c == 'e'
                    || *c == 'E'
            })
            .map(|(i, c)| i + c.len_utf8())
            .last()
            .unwrap_or(0);
        Ok(Value::Num(t[..end].parse::<f64>().unwrap_or(f64::NAN)))
    });
    method(interp, g, "isNaN", |it, _this, args| {
        let n = it.to_number_value(&arg(args, 0))?;
        Ok(Value::Bool(n.is_nan()))
    });
    method(interp, g, "isFinite", |it, _this, args| {
        let n = it.to_number_value(&arg(args, 0))?;
        Ok(Value::Bool(n.is_finite()))
    });

    // Global (indirect) eval: runs in global scope. Direct `eval(...)`
    // calls are intercepted by the interpreter as a special form.
    method(interp, g, "eval", |it, _this, args| {
        let scope = it.global_scope();
        it.eval_in_scope(arg(args, 0), &scope)
    });

    // console.log joins arguments with spaces, like browsers do.
    let console = interp.alloc_object_with_class("Console");
    method(interp, console, "log", |it, _this, args| {
        let mut parts = Vec::with_capacity(args.len());
        for a in args {
            parts.push(it.to_string_value(a)?.to_string());
        }
        it.console.push(parts.join(" "));
        Ok(Value::Undefined)
    });
    method(interp, console, "warn", |it, _this, args| {
        let mut parts = Vec::with_capacity(args.len());
        for a in args {
            parts.push(it.to_string_value(a)?.to_string());
        }
        it.console.push(parts.join(" "));
        Ok(Value::Undefined)
    });
    method(interp, console, "error", |it, _this, args| {
        let mut parts = Vec::with_capacity(args.len());
        for a in args {
            parts.push(it.to_string_value(a)?.to_string());
        }
        it.console.push(parts.join(" "));
        Ok(Value::Undefined)
    });
    interp
        .heap
        .get_mut(g)
        .props
        .insert(Arc::from("console"), Property::data_hidden(Value::Obj(console)));

    // setTimeout / clearTimeout backed by the virtual-time job queue. The
    // host drives time with `Interp::advance_time`.
    method(interp, g, "setTimeout", |it, _this, args| {
        let func = arg(args, 0);
        let delay = arg(args, 1).to_number().max(0.0) as u64;
        let rest: Vec<Value> = args.iter().skip(2).cloned().collect();
        let seq = it.push_job(func, rest, delay);
        Ok(Value::Num(seq as f64))
    });
    method(interp, g, "clearTimeout", |_it, _this, _args| Ok(Value::Undefined));
}
