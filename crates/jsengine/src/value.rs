//! Runtime values.

use std::fmt;
use std::sync::Arc;

use crate::object::ObjId;

/// A MiniJS runtime value.
///
/// Strings are reference-counted and immutable; objects live in the
/// interpreter heap and are referred to by [`ObjId`]. Equality on `Value` is
/// *identity* equality for objects (the semantics of JavaScript `===` for
/// reference types) and value equality for primitives, so `Value` equality
/// implements strict equality directly except for the `NaN !== NaN` rule,
/// which [`Value::strict_eq`] handles.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Undefined,
    Null,
    Bool(bool),
    Num(f64),
    Str(Arc<str>),
    Obj(ObjId),
}

impl Value {
    /// Build a string value from anything string-like.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// JavaScript `===`.
    pub fn strict_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Num(a), Value::Num(b)) => a == b, // NaN != NaN falls out of f64
            _ => self == other,
        }
    }

    /// JavaScript truthiness (`ToBoolean`).
    pub fn truthy(&self) -> bool {
        match self {
            Value::Undefined | Value::Null => false,
            Value::Bool(b) => *b,
            Value::Num(n) => *n != 0.0 && !n.is_nan(),
            Value::Str(s) => !s.is_empty(),
            Value::Obj(_) => true,
        }
    }

    /// `typeof` for non-callable values; the interpreter special-cases
    /// callables (which report `"function"`).
    pub fn type_of_primitive(&self) -> &'static str {
        match self {
            Value::Undefined => "undefined",
            Value::Null => "object",
            Value::Bool(_) => "boolean",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Obj(_) => "object",
        }
    }

    /// Numeric coercion (`ToNumber`) for primitives. Objects coerce to NaN
    /// here; the interpreter first converts objects to primitives where the
    /// spec requires it.
    pub fn to_number(&self) -> f64 {
        match self {
            Value::Undefined => f64::NAN,
            Value::Null => 0.0,
            Value::Bool(b) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
            Value::Num(n) => *n,
            Value::Str(s) => {
                let t = s.trim();
                if t.is_empty() {
                    0.0
                } else if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
                    i64::from_str_radix(hex, 16).map(|v| v as f64).unwrap_or(f64::NAN)
                } else {
                    t.parse::<f64>().unwrap_or(f64::NAN)
                }
            }
            Value::Obj(_) => f64::NAN,
        }
    }

    pub fn as_obj(&self) -> Option<ObjId> {
        match self {
            Value::Obj(id) => Some(*id),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn is_nullish(&self) -> bool {
        matches!(self, Value::Undefined | Value::Null)
    }
}

/// Format an `f64` the way JavaScript's `ToString` does for the common cases
/// (integers print without a trailing `.0`).
pub fn number_to_string(n: f64) -> String {
    if n.is_nan() {
        "NaN".to_owned()
    } else if n.is_infinite() {
        if n > 0.0 { "Infinity".to_owned() } else { "-Infinity".to_owned() }
    } else if n == n.trunc() && n.abs() < 1e21 {
        // Integral values (including -0 which prints as "0").
        format!("{}", n as i64)
    } else {
        let s = format!("{n}");
        s
    }
}

impl fmt::Display for Value {
    /// Primitive-only display; object display requires the heap (the
    /// interpreter's `to_display_string` handles that).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Undefined => write!(f, "undefined"),
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Num(n) => write!(f, "{}", number_to_string(*n)),
            Value::Str(s) => write!(f, "{s}"),
            Value::Obj(id) => write!(f, "[object #{}]", id.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness() {
        assert!(!Value::Undefined.truthy());
        assert!(!Value::Null.truthy());
        assert!(!Value::Num(0.0).truthy());
        assert!(!Value::Num(f64::NAN).truthy());
        assert!(!Value::str("").truthy());
        assert!(Value::str("x").truthy());
        assert!(Value::Num(-1.0).truthy());
    }

    #[test]
    fn number_formatting() {
        assert_eq!(number_to_string(42.0), "42");
        assert_eq!(number_to_string(-3.0), "-3");
        assert_eq!(number_to_string(2.5), "2.5");
        assert_eq!(number_to_string(f64::NAN), "NaN");
        assert_eq!(number_to_string(f64::INFINITY), "Infinity");
    }

    #[test]
    fn strict_eq_nan() {
        let nan = Value::Num(f64::NAN);
        assert!(!nan.strict_eq(&nan));
        assert!(Value::Num(1.0).strict_eq(&Value::Num(1.0)));
        assert!(!Value::Num(1.0).strict_eq(&Value::str("1")));
    }

    #[test]
    fn string_to_number() {
        assert_eq!(Value::str(" 42 ").to_number(), 42.0);
        assert_eq!(Value::str("").to_number(), 0.0);
        assert!(Value::str("abc").to_number().is_nan());
        assert_eq!(Value::str("0x10").to_number(), 16.0);
        assert_eq!(Value::Bool(true).to_number(), 1.0);
        assert_eq!(Value::Null.to_number(), 0.0);
    }
}
