//! `Serialize`/`Deserialize` impls for primitives, std containers and
//! [`Value`].

use crate::de::Reader;
use crate::ser::Writer;
use crate::value::{Number, Value};
use crate::{DeError, Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

macro_rules! ser_de_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut Writer<'_>) {
                w.u64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
                let n = r
                    .number(stringify!($t))?
                    .as_u64()
                    .ok_or_else(|| r.expected("unsigned integer", stringify!($t)))?;
                <$t>::try_from(n)
                    .map_err(|_| r.err(&format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

ser_de_uint!(u8, u16, u32, u64, usize);

macro_rules! ser_de_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut Writer<'_>) {
                w.i64(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
                let n = r
                    .number(stringify!($t))?
                    .as_i64()
                    .ok_or_else(|| r.expected("integer", stringify!($t)))?;
                <$t>::try_from(n)
                    .map_err(|_| r.err(&format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

ser_de_int!(i8, i16, i32, i64, isize);

impl<T: Serialize> Serialize for std::ops::Range<T> {
    fn serialize(&self, w: &mut Writer<'_>) {
        // Matches serde's representation: a struct with start/end.
        w.open(b'{');
        w.field(true, "\"start\":");
        self.start.serialize(w);
        w.field(false, "\"end\":");
        self.end.serialize(w);
        w.close(b'}', false);
    }
}

impl<T: Deserialize> Deserialize for std::ops::Range<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        let (mut start, mut end) = (None, None);
        let mut more = r.begin_object("Range")?;
        while more {
            match &*r.key()? {
                "start" => start = Some(T::deserialize(r)?),
                "end" => end = Some(T::deserialize(r)?),
                _ => r.skip_value()?,
            }
            more = r.more(b'}')?;
        }
        let or_missing = |field: Option<T>, name| field.map_or_else(|| T::missing(name), Ok);
        Ok(or_missing(start, "start")?..or_missing(end, "end")?)
    }
}

impl Serialize for u128 {
    fn serialize(&self, w: &mut Writer<'_>) {
        // JSON numbers top out at u64 here; wider values degrade to f64.
        match u64::try_from(*self) {
            Ok(n) => w.u64(n),
            Err(_) => w.f64(*self as f64),
        }
    }
}

impl Deserialize for u128 {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        let n = r.number("u128")?;
        match (n.as_u64(), n.as_f64()) {
            (Some(n), _) => Ok(n.into()),
            (None, Some(f)) if f >= 0.0 => Ok(f as u128),
            _ => Err(r.expected("unsigned integer", "u128")),
        }
    }
}

impl Serialize for f64 {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.f64(*self)
    }
}

impl Deserialize for f64 {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        r.number("f64")?
            .as_f64()
            .ok_or_else(|| r.expected("number", "f64"))
    }
}

impl Serialize for f32 {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.f64(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        Ok(f64::deserialize(r)? as f32)
    }
}

impl Serialize for bool {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        r.bool()
    }
}

impl Serialize for str {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.str(self)
    }
}

impl Serialize for String {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.str(self)
    }
}

impl Deserialize for String {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        Ok(r.str("String")?.into_owned())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.open(b'[');
        for (i, item) in self.iter().enumerate() {
            w.element(i == 0);
            item.serialize(w);
        }
        w.close(b']', self.is_empty());
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, w: &mut Writer<'_>) {
        self.as_slice().serialize(w)
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        // Grown as elements arrive: the input has no length to trust.
        let mut items = Vec::new();
        let mut more = r.begin_array("Vec")?;
        while more {
            items.push(T::deserialize(r)?);
            more = r.more(b']')?;
        }
        Ok(items)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, w: &mut Writer<'_>) {
        match self {
            Some(t) => t.serialize(w),
            None => w.null(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        if r.null()? {
            Ok(None)
        } else {
            T::deserialize(r).map(Some)
        }
    }

    fn missing(_field: &str) -> Result<Self, DeError> {
        Ok(None)
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.open(b'[');
        w.element(true);
        self.0.serialize(w);
        w.element(false);
        self.1.serialize(w);
        w.close(b']', false);
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        r.tuple(0, 2, "tuple")?;
        let a = A::deserialize(r)?;
        r.tuple(1, 2, "tuple")?;
        let b = B::deserialize(r)?;
        r.tuple(2, 2, "tuple")?;
        Ok((a, b))
    }
}

fn serialize_map<'m, V: Serialize + 'm>(
    entries: impl ExactSizeIterator<Item = (&'m String, &'m V)>,
    w: &mut Writer<'_>,
) {
    let empty = entries.len() == 0;
    w.open(b'{');
    for (i, (k, v)) in entries.enumerate() {
        w.key(i == 0, k);
        v.serialize(w);
    }
    w.close(b'}', empty);
}

/// Reads an object into any map; a repeated key overwrites (last wins).
fn deserialize_map<V: Deserialize, M: Default + Extend<(String, V)>>(
    r: &mut Reader<'_>,
    ty: &str,
) -> Result<M, DeError> {
    let mut map = M::default();
    let mut more = r.begin_object(ty)?;
    while more {
        let key = r.key()?.into_owned();
        map.extend([(key, V::deserialize(r)?)]);
        more = r.more(b'}')?;
    }
    Ok(map)
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn serialize(&self, w: &mut Writer<'_>) {
        // Sort for deterministic output (HashMap iteration order is not).
        let mut entries: Vec<(&String, &V)> = self.iter().collect();
        entries.sort_by_key(|&(k, _)| k);
        serialize_map(entries.into_iter(), w)
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        deserialize_map(r, "HashMap")
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn serialize(&self, w: &mut Writer<'_>) {
        serialize_map(self.iter(), w)
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        deserialize_map(r, "BTreeMap")
    }
}

impl Serialize for Ipv4Addr {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.str(&self.to_string())
    }
}

impl Deserialize for Ipv4Addr {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        r.str("Ipv4Addr")?
            .parse()
            .map_err(|e| r.err(&format!("bad ipv4 address: {e}")))
    }
}

impl Serialize for Value {
    fn serialize(&self, w: &mut Writer<'_>) {
        match self {
            Value::Null => w.null(),
            Value::Bool(b) => w.bool(*b),
            Value::Number(Number::U64(n)) => w.u64(*n),
            Value::Number(Number::I64(n)) => w.i64(*n),
            Value::Number(Number::F64(f)) => w.f64(*f),
            Value::String(s) => w.str(s),
            Value::Array(items) => items.serialize(w),
            Value::Object(obj) => serialize_map(obj.iter(), w),
        }
    }
}

impl Deserialize for Value {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        r.value(true)
    }
}
