//! The dynamically typed JSON value, for callers that index into a document
//! without a type for it. It reads and writes itself through the same
//! [`Reader`](crate::de::Reader) and [`Writer`](crate::ser::Writer) as every
//! other type.

use std::ops::Index;

/// A JSON number, kept wide enough to round-trip `u64`/`i64` exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// Non-negative integer.
    U64(u64),
    /// Negative integer.
    I64(i64),
    /// Floating point.
    F64(f64),
}

impl Number {
    /// As `u64`, when exactly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::U64(n) => Some(n),
            Number::I64(n) => u64::try_from(n).ok(),
            Number::F64(f) if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 => {
                Some(f as u64)
            }
            Number::F64(_) => None,
        }
    }

    /// As `i64`, when exactly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::U64(n) => i64::try_from(n).ok(),
            Number::I64(n) => Some(n),
            Number::F64(f) if f.fract() == 0.0 && f >= i64::MIN as f64 && f <= i64::MAX as f64 => {
                Some(f as i64)
            }
            Number::F64(_) => None,
        }
    }

    /// As `f64` (always possible, possibly lossy for huge integers).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Number::U64(n) => Some(n as f64),
            Number::I64(n) => Some(n as f64),
            Number::F64(f) => Some(f),
        }
    }
}

/// A JSON object preserving insertion order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Object {
    entries: Vec<(String, Value)>,
}

impl Object {
    /// Creates an empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends (or replaces) a key.
    pub fn insert(&mut self, key: impl Into<String>, value: Value) {
        let key = key.into();
        if let Some(slot) = self.entries.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.entries.push((key, value));
        }
    }

    /// Looks a key up.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the object has no keys.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(Object),
}

static NULL: Value = Value::Null;

impl Value {
    /// As bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// As u64.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// As i64.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// As f64.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.as_f64(),
            _ => None,
        }
    }

    /// As string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// As array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// As object.
    pub fn as_object(&self) -> Option<&Object> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Object field lookup (None for non-objects).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|o| o.get(key))
    }
}

impl Index<&str> for Value {
    type Output = Value;
    /// `value["key"]`, yielding `Null` for missing keys or non-objects —
    /// the same lenient behaviour as `serde_json`.
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl Index<usize> for Value {
    type Output = Value;
    /// `value[i]`, yielding `Null` out of range or for non-arrays.
    fn index(&self, i: usize) -> &Value {
        self.as_array().and_then(|a| a.get(i)).unwrap_or(&NULL)
    }
}
