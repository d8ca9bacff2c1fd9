//! Offline shim for the subset of `serde` this workspace uses.
//!
//! The real serde's visitor-based data model is replaced by a direct JSON
//! streaming model, JSON being the only format the workspace speaks:
//! [`Serialize`] writes a value's JSON text straight into an output buffer
//! through [`ser::Writer`], and [`Deserialize`] reads a value straight off
//! the input through [`de::Reader`]. No intermediate tree is built in
//! either direction; [`Value`] is an ordinary type that implements both
//! traits like any other. The derive macros (re-exported from the in-tree
//! `serde_derive` shim) generate impls against these traits with the same
//! external JSON representation serde_json would produce: fields in
//! declaration order, newtype structs transparent, unit enum variants as
//! strings, data-carrying variants as single-key objects, and `Option`
//! fields reading a missing key as `None`.
//!
//! What a decoder accepts, beyond the obvious: unknown keys are skipped
//! (their values checked against the full grammar, without allocating); a
//! repeated key is read again and the last value wins; a missing key is an
//! error naming the field unless the field is an `Option`; a data-carrying
//! enum variant must be the only key of its object; tuples and tuple
//! structs must have exactly their arity; an integer field takes an
//! integral float (`3.0`, `1e3`) but nothing out of its range.

#![forbid(unsafe_code)]

pub use serde_derive::{Deserialize, Serialize};

pub mod de;
mod impls;
pub mod ser;
pub mod value;

pub use value::{Number, Object, Value};

/// Deserialization error: a human-readable description of the mismatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(pub String);

impl DeError {
    /// Error for a required object key that is absent.
    pub fn missing(field: &str) -> Self {
        DeError(format!("missing field `{field}`"))
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

/// Types that can write themselves as JSON.
pub trait Serialize {
    /// Writes the JSON form of `self`.
    fn serialize(&self, w: &mut ser::Writer<'_>);
}

/// Types that can read themselves from JSON.
pub trait Deserialize: Sized {
    /// Reads one value off the input.
    fn deserialize(r: &mut de::Reader<'_>) -> Result<Self, DeError>;

    /// The value of an object field whose key is absent. The default is an
    /// error naming the field; `Option<T>` overrides this so a missing key
    /// reads as `None` (matching serde's derive behaviour).
    fn missing(field: &str) -> Result<Self, DeError> {
        Err(DeError::missing(field))
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, w: &mut ser::Writer<'_>) {
        (**self).serialize(w)
    }
}
