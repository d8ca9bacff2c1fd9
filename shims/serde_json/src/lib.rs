//! Offline shim for the subset of `serde_json` this workspace uses:
//! `to_string` / `to_string_pretty` / `to_vec` / `to_writer` / `from_str` /
//! `from_slice` and [`Value`] with lenient indexing.
//!
//! These are thin entry points over the `serde` shim's streaming model: a
//! value writes itself into the output buffer through one
//! [`Writer`](serde::ser::Writer) and reads itself off the input through one
//! [`Reader`](serde::de::Reader), whatever its type — [`parse_value`] is
//! `from_str::<Value>`. Output conventions match serde_json where
//! observable: string escaping, `null` for `None` and for non-finite
//! floats, externally tagged enums, shortest-round-trip float formatting,
//! 2-space pretty form.

#![forbid(unsafe_code)]

use serde::de::Reader;
use serde::ser::Writer;
pub use serde::value::{Number, Object, Value};
use serde::{DeError, Deserialize, Serialize};

/// Error type for both serialization and parsing (always a message).
pub type Error = DeError;

fn into_string(json: Vec<u8>) -> String {
    String::from_utf8(json).expect("the writer emits UTF-8")
}

/// Serializes to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    to_vec(value).map(into_string)
}

/// Serializes to a 2-space-indented JSON string.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = Vec::new();
    value.serialize(&mut Writer::pretty(&mut out));
    Ok(into_string(out))
}

/// Serializes to JSON bytes.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    let mut out = Vec::new();
    to_writer(&mut out, value)?;
    Ok(out)
}

/// Appends compact JSON to `out` (real serde_json's `to_writer`, for the
/// one writer this workspace hands it). Allocates nothing if `out` has the
/// room.
pub fn to_writer<T: Serialize + ?Sized>(out: &mut Vec<u8>, value: &T) -> Result<(), Error> {
    value.serialize(&mut Writer::compact(out));
    Ok(())
}

/// Parses a JSON value tree from a string.
pub fn parse_value(s: &str) -> Result<Value, Error> {
    from_str(s)
}

/// Deserializes a `T` from a JSON string; nothing but whitespace may follow
/// the value.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut r = Reader::new(s);
    let value = T::deserialize(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// Deserializes a `T` from JSON bytes, which must be UTF-8 as a whole.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let s = std::str::from_utf8(bytes).map_err(|_| DeError("non-utf8 json".into()))?;
    from_str(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::de::MAX_DEPTH;

    #[test]
    fn scalar_roundtrip() {
        assert_eq!(to_string(&17u64).unwrap(), "17");
        assert_eq!(to_string(&-3i64).unwrap(), "-3");
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(to_string(&1.0f64).unwrap(), "1.0");
        assert_eq!(from_str::<u64>("17").unwrap(), 17);
        assert_eq!(from_str::<f64>("1.5").unwrap(), 1.5);
        assert_eq!(from_str::<f64>("3").unwrap(), 3.0);
        assert_eq!(from_str::<String>("\"a\\nb\"").unwrap(), "a\nb");
    }

    #[test]
    fn container_roundtrip() {
        let v = vec![1u32, 2, 3];
        let s = to_string(&v).unwrap();
        assert_eq!(s, "[1,2,3]");
        assert_eq!(from_str::<Vec<u32>>(&s).unwrap(), v);
        let o: Option<u32> = None;
        assert_eq!(to_string(&o).unwrap(), "null");
        assert_eq!(from_str::<Option<u32>>("null").unwrap(), None);
        assert_eq!(from_str::<Option<u32>>("5").unwrap(), Some(5));
    }

    #[test]
    fn value_indexing() {
        let v = parse_value(r#"{"a": [1, {"b": "x"}], "n": 2.5}"#).unwrap();
        assert_eq!(v["a"][0].as_u64(), Some(1));
        assert_eq!(v["a"][1]["b"].as_str(), Some("x"));
        assert_eq!(v["n"].as_f64(), Some(2.5));
        assert!(v["missing"].is_null());
    }

    #[test]
    fn pretty_output_indents() {
        let v = parse_value(r#"{"a":[1,2]}"#).unwrap();
        assert_eq!(
            to_string_pretty(&v).unwrap(),
            "{\n  \"a\": [\n    1,\n    2\n  ]\n}"
        );
    }

    #[test]
    fn unicode_and_escapes_survive() {
        let s = "héllo \"wörld\" \t ❤";
        let enc = to_string(&s.to_string()).unwrap();
        assert_eq!(from_str::<String>(&enc).unwrap(), s);
        assert_eq!(from_str::<String>(r#""😀""#).unwrap(), "😀");
    }

    #[test]
    fn malformed_inputs_error() {
        assert!(parse_value("{").is_err());
        assert!(parse_value("[1,]").is_err());
        assert!(parse_value("nul").is_err());
        assert!(parse_value("1 2").is_err());
        assert!(from_str::<u64>("\"no\"").is_err());
    }

    #[test]
    fn unpaired_surrogates_are_errors() {
        // A high surrogate followed by a `\u` escape that is not a low
        // surrogate used to decode to an unrelated character, or panic on
        // the subtraction in a debug build.
        for bad in [
            r#""\ud800""#,
            r#""\udc00""#,
            r#""\ud800\u0041""#,
            r#""\ud800\ud800""#,
            r#""\ud800\ue000""#,
            r#""\ud800x""#,
        ] {
            assert!(from_str::<String>(bad).is_err(), "{bad}");
            assert!(parse_value(bad).is_err(), "{bad}");
        }
        assert_eq!(
            from_str::<String>(r#""\udbff\udfff""#).unwrap(),
            "\u{10ffff}"
        );
    }

    #[test]
    fn numbers_past_f64_are_errors_not_infinity() {
        for bad in ["1e400", "-1e400", "[1e309]", r#"{"k":-1e309}"#] {
            let err = parse_value(bad).unwrap_err();
            assert!(err.0.contains("out of range"), "{bad}: {}", err.0);
        }
        assert!(from_str::<f64>("1e400").is_err());
        assert!(from_str::<f64>("-1e400").is_err());
        assert_eq!(from_str::<f64>("1e308").unwrap(), 1e308);
        assert_eq!(from_str::<f64>("1e-400").unwrap(), 0.0);
    }

    #[test]
    fn skipping_never_builds_and_is_depth_limited() {
        // The value of an unknown key goes through the same reader as a
        // kept one, so the limit counts the containers around it too.
        #[derive(Debug, serde::Deserialize)]
        struct Only {
            a: u32,
        }
        let nested = |n: usize| format!(r#"{{"x":{}{},"a":1}}"#, "[".repeat(n), "]".repeat(n));
        assert_eq!(from_str::<Only>(&nested(MAX_DEPTH - 1)).unwrap().a, 1);
        let err = from_str::<Only>(&nested(MAX_DEPTH)).unwrap_err();
        assert!(err.0.contains("recursion limit"), "{}", err.0);
        let bomb = format!(r#"{{"x":{}"#, "[".repeat(100_000));
        assert!(from_str::<Only>(&bomb).is_err());
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing_the_stack() {
        // One past the limit fails with a message…
        let bomb = "[".repeat(MAX_DEPTH + 1);
        let err = parse_value(&bomb).unwrap_err();
        assert!(err.0.contains("recursion limit"), "{}", err.0);
        // …and an absurd bomb (a few KB of brackets, the cheapest
        // possible abuse of an upload endpoint) fails the same way.
        assert!(parse_value(&"[".repeat(100_000)).is_err());
        assert!(parse_value(&"{\"k\":".repeat(100_000)).is_err());
        // At the limit itself a well-formed value still parses.
        let deep = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse_value(&deep).is_ok());
    }
}
