//! Golden vectors for the JSON codec: one encode case per derive shape and
//! std impl, and an accept/reject verdict (with the decoded value, shown as
//! its re-encoding) for every decode rule the workspace relies on.
//!
//! The expected lines in `tests/golden/vectors.txt` were recorded by running
//! this file against the commit *before* the streaming codec (the `Value`-tree
//! shims), so they pin byte identity and the accept/reject set to that
//! commit without keeping a copy of its encoder. The divergences — the two
//! bug fixes (mismatched surrogate pairs, numbers that overflow `f64`) and an
//! ill-typed earlier duplicate of a key — are the `fixed:` and
//! `earlier-duplicate:` cases at the bottom; their expectations were written
//! by hand, and `vectors.txt` lists what the recorded commit said instead.
//!
//! Every run writes what it produced to `$CARGO_TARGET_TMPDIR/vectors.actual`;
//! after an intended change, diff that file against `vectors.txt`.

use serde::{Deserialize, Serialize};
use serde_json::{from_slice, from_str, parse_value, to_string, to_string_pretty, to_vec, Value};
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;
use std::ops::Range;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Named {
    a: u32,
    b: Option<i64>,
    #[serde(skip)]
    cache: u8,
    name: String,
    f: f64,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(transparent)]
struct Meters(u32);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Label(String);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(transparent)]
struct Port {
    #[serde(skip)]
    seen: bool,
    number: u16,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Pair(u8, String);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Marker;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Empty {}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Shape {
    Dot,
    Circle(u32),
    Segment(i8, bool),
    Rect { w: f64, tag: Option<String> },
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Maps {
    h: HashMap<String, u32>,
    b: BTreeMap<String, Vec<u8>>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Misc {
    r: Range<u32>,
    ip: Ipv4Addr,
    t: (u8, String),
    big: u128,
    n: usize,
    i: i16,
    x: f32,
    ok: bool,
    v: Value,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Nest {
    id: Meters,
    shapes: Vec<Shape>,
    inner: Option<Named>,
    maps: Maps,
    nothing: Vec<u32>,
    unit: Marker,
    empty: Empty,
}

fn named() -> Named {
    Named {
        a: 7,
        b: Some(-3),
        cache: 9,
        name: "pod \"7\"\\\n\r\t\u{8}\u{c}\u{1f}\u{7f} é ❤ 😀".into(),
        f: 1.5,
    }
}

fn maps() -> Maps {
    Maps {
        h: [("zeta", 1), ("alpha", 2), ("mid\"dle", 3), ("Alpha", 4)]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        b: [("b", vec![1, 2]), ("a", vec![])]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    }
}

fn misc() -> Misc {
    Misc {
        r: 3..9,
        ip: Ipv4Addr::new(10, 0, 200, 1),
        t: (255, "t".into()),
        big: u128::from(u64::MAX) + 1,
        n: usize::MAX,
        i: -32768,
        x: 0.1,
        ok: true,
        v: parse_value(r#"{"k":[1,-2,3.5,"s",null,true,{"z":{}}],"k2":[],"k":"dup"}"#).unwrap(),
    }
}

fn nest() -> Nest {
    Nest {
        id: Meters(12),
        shapes: vec![
            Shape::Dot,
            Shape::Circle(4),
            Shape::Segment(-1, false),
            Shape::Rect { w: 2.0, tag: None },
        ],
        inner: Some(named()),
        maps: maps(),
        nothing: vec![],
        unit: Marker,
        empty: Empty {},
    }
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "ok"
    } else {
        "err"
    }
}

/// One `name: "escaped text"` line.
fn line(out: &mut Vec<String>, name: &str, text: &str) {
    out.push(format!("{name}: {text:?}"));
}

fn enc<T: Serialize + ?Sized>(out: &mut Vec<String>, name: &str, value: &T) {
    let compact = to_string(value).unwrap();
    assert_eq!(to_vec(value).unwrap(), compact.as_bytes(), "{name}");
    line(out, &format!("encode {name}"), &compact);
}

fn pretty<T: Serialize + ?Sized>(out: &mut Vec<String>, name: &str, value: &T) {
    line(
        out,
        &format!("pretty {name}"),
        &to_string_pretty(value).unwrap(),
    );
}

/// Decodes `input` as `T`; an accepted value is shown as its re-encoding,
/// which must decode and encode back to the same text.
fn dec<T>(out: &mut Vec<String>, ty: &str, input: &str)
where
    T: Serialize + Deserialize,
{
    let verdict = match from_str::<T>(input) {
        Ok(v) => {
            let again = to_string(&v).unwrap();
            assert!(
                parse_value(input).is_ok(),
                "{ty} accepted {input:?} but parse_value rejects it"
            );
            // The encoding is a fixed point (compared as text: `Value`
            // reads `-0` as I64(0) and its encoding `0` as U64(0)). The
            // one value that does not survive it is a float narrowed to
            // infinity, which encodes as `null`.
            match from_str::<T>(&again) {
                Ok(back) => {
                    assert_eq!(to_string(&back).unwrap(), again, "{ty} {input:?}");
                    format!("ok {again}")
                }
                Err(_) => format!("ok {again} (does not decode back)"),
            }
        }
        Err(_) => "err".to_string(),
    };
    line(out, &format!("decode {ty} {input:?}"), &verdict);
}

fn encode_cases(out: &mut Vec<String>) {
    enc(out, "named", &named());
    enc(
        out,
        "named-none",
        &Named {
            b: None,
            name: String::new(),
            f: -0.0,
            ..named()
        },
    );
    for (name, f) in [
        ("f64-int", 1.0),
        ("f64-big", 1e21),
        ("f64-small", 1e-7),
        ("f64-neg", -2.5e-300),
        ("f64-max", f64::MAX),
        ("f64-nan", f64::NAN),
        ("f64-inf", f64::INFINITY),
        ("f64-ninf", f64::NEG_INFINITY),
        ("f64-third", 1.0 / 3.0),
    ] {
        enc(out, name, &f);
    }
    enc(out, "f32", &0.1f32);
    enc(out, "u64-max", &u64::MAX);
    enc(out, "i64-min", &i64::MIN);
    enc(out, "i64-pos", &5i64);
    enc(out, "u8", &0u8);
    enc(out, "u128-small", &17u128);
    enc(out, "u128-large", &u128::MAX);
    enc(out, "bool", &false);
    enc(out, "str", "a/b\u{0}");
    enc(out, "ref", &&3u16);
    enc(out, "transparent", &Meters(5));
    enc(out, "newtype", &Label("x".into()));
    enc(
        out,
        "transparent-named",
        &Port {
            seen: true,
            number: 443,
        },
    );
    enc(out, "tuple-struct", &Pair(1, "one".into()));
    enc(out, "unit-struct", &Marker);
    enc(out, "empty-struct", &Empty {});
    enc(out, "enum-unit", &Shape::Dot);
    enc(out, "enum-newtype", &Shape::Circle(9));
    enc(out, "enum-tuple", &Shape::Segment(-7, true));
    enc(
        out,
        "enum-struct",
        &Shape::Rect {
            w: 0.5,
            tag: Some("t".into()),
        },
    );
    enc(out, "option-none", &Option::<u32>::None);
    enc(out, "option-some", &Some(3u32));
    enc(out, "option-nested", &Some(Option::<u32>::None));
    enc(out, "vec-empty", &Vec::<u32>::new());
    enc(out, "vec-nested", &vec![vec![1u8], vec![], vec![2, 3]]);
    enc(out, "slice", &[1u8, 2][..]);
    enc(out, "tuple", &(1u8, "x".to_string()));
    enc(out, "maps", &maps());
    enc(out, "maps-empty", &HashMap::<String, u32>::new());
    enc(out, "range", &(1u64..2));
    enc(out, "ipv4", &Ipv4Addr::LOCALHOST);
    enc(out, "misc", &misc());
    enc(out, "nest", &nest());
    enc(out, "value-null", &Value::Null);
    pretty(out, "nest", &nest());
    pretty(out, "misc", &misc());
    pretty(out, "scalar", &1u8);
    pretty(out, "vec-empty", &Vec::<u32>::new());
    pretty(out, "empty-struct", &Empty {});
    pretty(
        out,
        "enum-tuple",
        &vec![Shape::Segment(1, true), Shape::Dot],
    );
}

/// Inputs every typed decoder and `parse_value` are asked about: the JSON
/// grammar's edges rather than any one type's shape.
const GRAMMAR: &[&str] = &[
    "",
    " ",
    "null",
    " null ",
    "nul",
    "nulll",
    "true",
    "false",
    "tru",
    "0",
    "-0",
    "-0.0",
    "7",
    " 7 ",
    "07",
    "7.",
    "-.5",
    ".5",
    "+7",
    "-",
    "--7",
    "7-1",
    "7e",
    "7e2",
    "7E+2",
    "7.0",
    "7.5",
    "-7",
    "255",
    "256",
    "65535",
    "65536",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "-9223372036854775808",
    "-9223372036854775809",
    "1e19",
    "1e20",
    "1.8446744073709552e19",
    "123456789012345678901234567890",
    "1e308",
    "5e-324",
    "1e-400",
    "7 7",
    "7,",
    "7x",
    "\"\"",
    "\"x\"",
    "\"x",
    "\"x\" y",
    "\"a\\\"b\\\\c\\/d\\n\\r\\t\\b\\f\"",
    "\"\\u0041\\u00e9\\u2764\"",
    "\"\\ud83d\\ude00\"",
    "\"\\uD83D\\uDE00\"",
    "\"\\u00\"",
    "\"\\u00zz\"",
    "\"\\u+041\"",
    "\"\\x\"",
    "\"\\",
    "\"tab\there\"",
    "\"nl\nhere\"",
    "\"é ❤ 😀\"",
    "\"10.1.2.3\"",
    "\"10.1.2\"",
    "\"Dot\"",
    "\"Circle\"",
    "\"dot\"",
    "[]",
    "[ ]",
    "[",
    "]",
    "[1]",
    "[1,]",
    "[,1]",
    "[1 2]",
    "[1,2]",
    "[1,\"x\"]",
    "[ 1 , \"x\" ]",
    "[1,\"x\",3]",
    "[\"x\",1]",
    "[1,2,3]",
    "[[1],[],[2,3]]",
    "[null]",
    "{}",
    "{ }",
    "{",
    "}",
    "{\"a\"}",
    "{\"a\":}",
    "{\"a\":1,}",
    "{,\"a\":1}",
    "{\"a\" 1}",
    "{a:1}",
    "{1:1}",
    "{\"a\":1}",
    "{\"a\":1}x",
    "{\"a\":1} ",
    "{\"k\":5,\"j\":6}",
    "{\"k\":5,\"k\":6}",
    "{\"k\":6,\"k\":\"x\"}",
    "{\"k\":[1,2],\"j\":[]}",
    "{\"\\u006b\":5}",
    "{\"start\":1,\"end\":2}",
    "{\"end\":2,\"start\":1,\"step\":[{}]}",
    "{\"start\":1}",
    "{\"start\":1,\"end\":null}",
];

const NAMED: &[&str] = &[
    r#"{"a":7,"b":-3,"name":"n","f":1.5}"#,
    r#" { "a" : 7 , "b" : -3 , "name" : "n" , "f" : 1.5 } "#,
    "{\n\t\"a\":7,\r\n\"b\":null,\"name\":\"n\",\"f\":2}",
    r#"{"f":1e3,"name":"n","a":7.0}"#,
    r#"{"a":7,"name":"n","f":1}"#,
    r#"{"a":7,"b":1,"name":"n"}"#,
    r#"{"b":1,"name":"n","f":1}"#,
    r#"{"a":7,"b":1,"f":1}"#,
    r#"{"a":7,"name":"n","f":1,"cache":200}"#,
    r#"{"a":7,"name":"n","f":1,"cache":"not a u8"}"#,
    r#"{"a":7,"name":"n","f":1,"extra":{"deep":[1,{"x":[null,true,"s\n"]}],"n":-1.5e3}}"#,
    r#"{"a":7,"name":"n","f":1,"extra":{"deep":[1,}}"#,
    r#"{"a":7,"name":"n","f":1,"extra":"\ud800"}"#,
    r#"{"a":7,"name":"n","f":1,"extra":7e}"#,
    r#"{"a":7,"name":"n","f":1,"extra":tru}"#,
    r#"{"a":1,"a":2,"name":"x","name":"y","f":1,"f":2}"#,
    r#"{"a":7,"b":1,"b":null,"name":"n","f":1}"#,
    r#"{"a":7,"\u0062":5,"n\u0061me":"n","f":1}"#,
    r#"{"a":1e3,"name":"n","f":1}"#,
    r#"{"a":1.5,"name":"n","f":1}"#,
    r#"{"a":-1,"name":"n","f":1}"#,
    r#"{"a":4294967296,"name":"n","f":1}"#,
    r#"{"a":"7","name":"n","f":1}"#,
    r#"{"a":null,"name":"n","f":1}"#,
    r#"{"a":7,"name":null,"f":1}"#,
    r#"{"a":7,"name":7,"f":1}"#,
    r#"{"a":7,"name":"n","f":null}"#,
    r#"{"a":7,"name":"n","f":"1"}"#,
    r#"{"a":7,"b":9223372036854775808,"name":"n","f":1}"#,
    r#"{"a":7,"b":-9.0,"name":"n","f":-0}"#,
    r#"{"a":7,"b":[],"name":"n","f":1}"#,
    r#"[7,-3,"n",1.5]"#,
    r#"{"a":7,"name":"n","f":1}}"#,
    r#"{"a":7,"name":"n","f":1"#,
    r#"{"A":7,"name":"n","f":1}"#,
];

const SHAPE: &[&str] = &[
    r#"{"Circle":4}"#,
    r#" { "Circle" : 4 } "#,
    r#"{"Circle":4.0}"#,
    r#"{"Circle":-4}"#,
    r#"{"Circle":[4]}"#,
    r#"{"Circle":null}"#,
    r#"{"Dot":null}"#,
    r#"{"Dot":[]}"#,
    r#"{"Segment":[-1,true]}"#,
    r#"{"Segment":[-1]}"#,
    r#"{"Segment":[-1,true,0]}"#,
    r#"{"Segment":[]}"#,
    r#"{"Segment":{"0":-1,"1":true}}"#,
    r#"{"Segment":[-129,true]}"#,
    r#"{"Segment":[1,1]}"#,
    r#"{"Rect":{"w":2,"tag":"t"}}"#,
    r#"{"Rect":{"w":2}}"#,
    r#"{"Rect":{"tag":"t"}}"#,
    r#"{"Rect":{"tag":null,"w":2.5,"z":[[]]}}"#,
    r#"{"Rect":[2,"t"]}"#,
    r#"{"Rect":{}}"#,
    r#"{"Oval":1}"#,
    r#"{"circle":4}"#,
    r#"{"Circle":4,"Dot":null}"#,
    r#"{"Circle":4,"Circle":5}"#,
    r#"{"Circle":4,"Oval":5}"#,
    r#"{"\u0043ircle":4}"#,
    r#""\u0044ot""#,
    r#"["Dot"]"#,
];

fn decode_cases(out: &mut Vec<String>) {
    for input in GRAMMAR {
        dec::<Value>(out, "Value", input);
        dec::<u8>(out, "u8", input);
        dec::<u16>(out, "u16", input);
        dec::<u32>(out, "u32", input);
        dec::<u64>(out, "u64", input);
        dec::<usize>(out, "usize", input);
        dec::<u128>(out, "u128", input);
        dec::<i8>(out, "i8", input);
        dec::<i64>(out, "i64", input);
        dec::<f64>(out, "f64", input);
        dec::<f32>(out, "f32", input);
        dec::<bool>(out, "bool", input);
        dec::<String>(out, "String", input);
        dec::<Option<u32>>(out, "Option<u32>", input);
        dec::<Option<Option<String>>>(out, "Option<Option<String>>", input);
        dec::<Vec<u32>>(out, "Vec<u32>", input);
        dec::<Vec<Vec<u8>>>(out, "Vec<Vec<u8>>", input);
        dec::<(u8, String)>(out, "(u8,String)", input);
        dec::<Pair>(out, "Pair", input);
        dec::<Meters>(out, "Meters", input);
        dec::<Label>(out, "Label", input);
        dec::<Port>(out, "Port", input);
        dec::<Marker>(out, "Marker", input);
        dec::<Empty>(out, "Empty", input);
        dec::<Shape>(out, "Shape", input);
        dec::<Ipv4Addr>(out, "Ipv4Addr", input);
        dec::<Range<u32>>(out, "Range<u32>", input);
        dec::<Range<Option<u32>>>(out, "Range<Option<u32>>", input);
        dec::<HashMap<String, u32>>(out, "HashMap<String,u32>", input);
        dec::<BTreeMap<String, Vec<u8>>>(out, "BTreeMap<String,Vec<u8>>", input);
    }
    for input in NAMED {
        dec::<Named>(out, "Named", input);
        dec::<Value>(out, "Value", input);
    }
    for input in SHAPE {
        dec::<Shape>(out, "Shape", input);
    }
    for value in [to_string(&nest()).unwrap(), to_string(&misc()).unwrap()] {
        dec::<Nest>(out, "Nest", &value);
        dec::<Misc>(out, "Misc", &value);
        dec::<Value>(out, "Value", &value);
    }
    dec::<Nest>(out, "Nest", &to_string_pretty(&nest()).unwrap());
    dec::<Misc>(out, "Misc", &to_string_pretty(&misc()).unwrap());

    // Depth: the limit counts every container from the root, typed or
    // skipped.
    let deep = |n: usize| "[".repeat(n) + &"]".repeat(n);
    for n in [127, 128, 129] {
        let input = deep(n);
        line(
            out,
            &format!("depth Value {n}"),
            verdict(parse_value(&input).is_ok()),
        );
        let unknown = format!(r#"{{"a":1,"name":"n","f":1,"x":{input}}}"#);
        line(
            out,
            &format!("depth Named-unknown-field {n}+1"),
            verdict(from_str::<Named>(&unknown).is_ok()),
        );
        let marker = format!("[{input}]");
        line(
            out,
            &format!("depth Vec<Marker> {n}+1"),
            verdict(from_str::<Vec<Marker>>(&marker).is_ok()),
        );
    }

    for (name, bytes) in [
        ("lone-continuation", &b"\"\x80\""[..]),
        ("truncated-multibyte", &b"\"\xe2\x9d\""[..]),
        ("overlong", &b"\"\xc0\xaf\""[..]),
        ("outside-string", &b"7\xff"[..]),
        (
            "in-skipped-field",
            &b"{\"a\":1,\"name\":\"n\",\"f\":1,\"x\":\"\xff\"}"[..],
        ),
        ("valid", "\"é\"".as_bytes()),
    ] {
        line(
            out,
            &format!("utf8 {name}"),
            &format!(
                "String {} Named {} Value {}",
                verdict(from_slice::<String>(bytes).is_ok()),
                verdict(from_slice::<Named>(bytes).is_ok()),
                verdict(from_slice::<Value>(bytes).is_ok())
            ),
        );
    }
}

/// The one divergence that comes with reading values where they stand: a
/// repeated key still means the last value wins, but an *earlier* value that
/// is not of the field's type is now an error, as it is in real serde_json.
/// The recorded commit never looked at it, because the later member had
/// already replaced it in the tree. Hand-written, like the `fixed:` cases.
fn earlier_duplicate_cases(out: &mut Vec<String>) {
    for input in [
        r#"{"k":"x","k":6}"#,
        r#"{"k":6,"k":"x"}"#,
        r#"{"k":5,"k":6}"#,
    ] {
        line(
            out,
            &format!("earlier-duplicate: {input:?}"),
            &format!(
                "Value {} HashMap<String,u32> {} BTreeMap<String,u32> {} Empty {}",
                verdict(parse_value(input).is_ok()),
                verdict(from_str::<HashMap<String, u32>>(input).is_ok()),
                verdict(from_str::<BTreeMap<String, u32>>(input).is_ok()),
                verdict(from_str::<Empty>(input).is_ok())
            ),
        );
    }
    for input in [
        r#"{"a":"x","a":7,"name":"n","f":1}"#,
        r#"{"a":7,"a":"x","name":"n","f":1}"#,
        r#"{"a":7,"name":"n","f":1,"cache":"x","cache":[]}"#,
    ] {
        line(
            out,
            &format!("earlier-duplicate: {input:?}"),
            &format!("Named {}", verdict(from_str::<Named>(input).is_ok())),
        );
    }
    for input in [
        r#"{"Circle":"x","Circle":5}"#,
        r#"{"Circle":5,"Circle":"x"}"#,
        r#"{"Rect":{"w":"x","w":2}}"#,
    ] {
        line(
            out,
            &format!("earlier-duplicate: {input:?}"),
            &format!("Shape {}", verdict(from_str::<Shape>(input).is_ok())),
        );
    }
}

/// The two intentional divergences from the recorded commit. There a
/// high surrogate followed by a non-low `\u` escape decoded to an
/// unrelated character (release) or panicked (debug), and a number past
/// `f64::MAX` was accepted as infinity.
fn fixed_cases(out: &mut Vec<String>) {
    for input in [
        r#""\ud800""#,
        r#""\udc00""#,
        r#""\ud800x""#,
        r#""\ud800\n""#,
        r#""\ud800\u0041""#,
        r#""\ud800\ud800""#,
        r#""\ud800\ue000""#,
        r#""\ud800\udbff""#,
        r#""\udbff\udfff""#,
        "1e400",
        "-1e400",
        "1e309",
        "[1e400]",
        r#"{"a":7,"name":"n","f":1e999}"#,
        r#"{"a":7,"name":"n","f":1,"skipped":-1e999}"#,
        r#"{"a":7,"name":"n","f":1,"skipped":"\ud800\u0041"}"#,
    ] {
        line(
            out,
            &format!("fixed: {input:?}"),
            &format!(
                "Value {} String {} f64 {} Named {}",
                verdict(parse_value(input).is_ok()),
                verdict(from_str::<String>(input).is_ok()),
                verdict(from_str::<f64>(input).is_ok()),
                verdict(from_str::<Named>(input).is_ok())
            ),
        );
    }
}

#[test]
fn golden_vectors_match_the_recorded_commit() {
    let mut actual = Vec::new();
    encode_cases(&mut actual);
    decode_cases(&mut actual);
    earlier_duplicate_cases(&mut actual);
    fixed_cases(&mut actual);
    let actual = actual.join("\n") + "\n";

    let actual_path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("vectors.actual");
    std::fs::write(&actual_path, &actual).unwrap();

    // `#` lines note what the recorded commit said where that differs.
    let expected: Vec<&str> = include_str!("golden/vectors.txt")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .collect();
    let mut mismatches = 0;
    for (i, (want, got)) in expected.iter().zip(actual.lines()).enumerate() {
        if *want != got {
            mismatches += 1;
            if mismatches <= 20 {
                eprintln!("vector {}:\n  recorded {want}\n  produced {got}", i + 1);
            }
        }
    }
    assert_eq!(
        mismatches, 0,
        "{mismatches} golden vectors differ; full output in {actual_path:?}"
    );
    assert_eq!(
        expected.len(),
        actual.lines().count(),
        "vector count differs; full output in {actual_path:?}"
    );
}
