//! Offline shim of serde's derive macros.
//!
//! Parses the item definition directly from the [`proc_macro::TokenStream`]
//! (the build is fully offline, so `syn`/`quote` are unavailable) and
//! generates impls of the shim `serde::Serialize` / `serde::Deserialize`
//! traits: `serialize` is one `Writer` call per field, in declaration
//! order; `deserialize` is a loop over the object's keys that matches each
//! against the field names and reads the value where it stands, so neither
//! direction builds an intermediate tree. Supported shapes — exactly what
//! this workspace contains:
//!
//! * structs with named fields (`#[serde(skip)]` honoured);
//! * tuple structs (single-field newtypes are transparent, as in serde);
//! * `#[serde(transparent)]` (same behaviour as a newtype);
//! * enums with unit, newtype, tuple, and struct variants, using serde's
//!   externally-tagged JSON representation.
//!
//! Generic types and other `#[serde(...)]` attributes are rejected with a
//! compile error rather than silently mis-serialized.

#![forbid(unsafe_code)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug, Clone)]
struct Field {
    name: String, // field name, or tuple index as a string
    skip: bool,
}

#[derive(Debug, Clone)]
enum Shape {
    Named(Vec<Field>),
    Tuple(usize),
    Unit,
}

#[derive(Debug, Clone)]
struct Variant {
    name: String,
    shape: Shape,
}

#[derive(Debug)]
enum Item {
    Struct {
        name: String,
        transparent: bool,
        shape: Shape,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

impl Item {
    fn name(&self) -> &str {
        match self {
            Item::Struct { name, .. } | Item::Enum { name, .. } => name,
        }
    }
}

fn error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().unwrap()
}

/// Collects `transparent` / `skip` flags from a `#[serde(...)]` attribute
/// body; any other serde attribute is unsupported.
fn scan_serde_attr(
    body: TokenStream,
    transparent: &mut bool,
    skip: &mut bool,
) -> Result<(), String> {
    for tt in body {
        match tt {
            TokenTree::Ident(id) if id.to_string() == "transparent" => *transparent = true,
            TokenTree::Ident(id) if id.to_string() == "skip" => *skip = true,
            TokenTree::Punct(_) => {}
            other => return Err(format!("unsupported #[serde(...)] attribute: {other}")),
        }
    }
    Ok(())
}

/// Consumes leading attributes at `*i`, returning (transparent, skip) flags
/// found in `#[serde(...)]` among them.
fn skip_attrs(tokens: &[TokenTree], i: &mut usize) -> Result<(bool, bool), String> {
    let mut transparent = false;
    let mut skip = false;
    while *i + 1 < tokens.len() {
        let TokenTree::Punct(p) = &tokens[*i] else {
            break;
        };
        if p.as_char() != '#' {
            break;
        }
        let TokenTree::Group(g) = &tokens[*i + 1] else {
            break;
        };
        if g.delimiter() != Delimiter::Bracket {
            break;
        }
        let inner: Vec<TokenTree> = g.stream().into_iter().collect();
        if let Some(TokenTree::Ident(id)) = inner.first() {
            if id.to_string() == "serde" {
                if let Some(TokenTree::Group(body)) = inner.get(1) {
                    scan_serde_attr(body.stream(), &mut transparent, &mut skip)?;
                }
            }
        }
        *i += 2;
    }
    Ok((transparent, skip))
}

/// Skips a `pub` / `pub(...)` visibility marker.
fn skip_vis(tokens: &[TokenTree], i: &mut usize) {
    if let Some(TokenTree::Ident(id)) = tokens.get(*i) {
        if id.to_string() == "pub" {
            *i += 1;
            if let Some(TokenTree::Group(g)) = tokens.get(*i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    *i += 1;
                }
            }
        }
    }
}

/// Splits a brace/paren group body on top-level commas. Angle brackets
/// are bare puncts in a token stream (not nested groups), so commas
/// inside generic arguments like `HashMap<K, V>` must be tracked by
/// `<`/`>` depth and left alone.
fn split_commas(ts: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut out: Vec<Vec<TokenTree>> = vec![Vec::new()];
    let mut angle_depth = 0usize;
    for tt in ts {
        match &tt {
            TokenTree::Punct(p) if p.as_char() == '<' => {
                angle_depth += 1;
                out.last_mut().unwrap().push(tt);
            }
            TokenTree::Punct(p) if p.as_char() == '>' => {
                angle_depth = angle_depth.saturating_sub(1);
                out.last_mut().unwrap().push(tt);
            }
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => out.push(Vec::new()),
            _ => out.last_mut().unwrap().push(tt),
        }
    }
    if out.last().is_some_and(Vec::is_empty) {
        out.pop();
    }
    out
}

fn parse_named_fields(body: TokenStream) -> Result<Vec<Field>, String> {
    let mut fields = Vec::new();
    for chunk in split_commas(body) {
        let mut i = 0;
        let (_, skip) = skip_attrs(&chunk, &mut i)?;
        skip_vis(&chunk, &mut i);
        let Some(TokenTree::Ident(name)) = chunk.get(i) else {
            return Err("expected field name".into());
        };
        fields.push(Field {
            name: name.to_string(),
            skip,
        });
    }
    Ok(fields)
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let (mut transparent, _) = skip_attrs(&tokens, &mut i)?;
    skip_vis(&tokens, &mut i);
    // Attributes can also appear between visibility and the keyword.
    let (t2, _) = skip_attrs(&tokens, &mut i)?;
    transparent |= t2;

    let Some(TokenTree::Ident(kw)) = tokens.get(i) else {
        return Err("expected `struct` or `enum`".into());
    };
    let kw = kw.to_string();
    i += 1;
    let Some(TokenTree::Ident(name)) = tokens.get(i) else {
        return Err("expected type name".into());
    };
    let name = name.to_string();
    i += 1;
    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            return Err(format!(
                "generic type {name} is not supported by the serde shim"
            ));
        }
    }

    match kw.as_str() {
        "struct" => {
            let shape = match tokens.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Shape::Named(parse_named_fields(g.stream())?)
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Shape::Tuple(split_commas(g.stream()).len())
                }
                _ => Shape::Unit,
            };
            Ok(Item::Struct {
                name,
                transparent,
                shape,
            })
        }
        "enum" => {
            let Some(TokenTree::Group(g)) = tokens.get(i) else {
                return Err("expected enum body".into());
            };
            let mut variants = Vec::new();
            for chunk in split_commas(g.stream()) {
                let mut vi = 0;
                skip_attrs(&chunk, &mut vi)?;
                let Some(TokenTree::Ident(vname)) = chunk.get(vi) else {
                    return Err("expected variant name".into());
                };
                let shape = match chunk.get(vi + 1) {
                    Some(TokenTree::Group(vg)) if vg.delimiter() == Delimiter::Brace => {
                        Shape::Named(parse_named_fields(vg.stream())?)
                    }
                    Some(TokenTree::Group(vg)) if vg.delimiter() == Delimiter::Parenthesis => {
                        Shape::Tuple(split_commas(vg.stream()).len())
                    }
                    _ => Shape::Unit,
                };
                variants.push(Variant {
                    name: vname.to_string(),
                    shape,
                });
            }
            Ok(Item::Enum { name, variants })
        }
        other => Err(format!("cannot derive serde traits for `{other}` items")),
    }
}

/// The names tuple fields are bound to: `__f0`, `__f1`, ….
fn tuple_binds(len: usize) -> Vec<String> {
    (0..len).map(|k| format!("__f{k}")).collect()
}

// ---------------------------------------------------------------- Serialize

const SER: &str = "::serde::Serialize::serialize";

/// Statements writing `{"a":…,"b":…}` for the live fields; `access` turns a
/// field name into the expression that borrows it.
fn gen_write_object(fields: &[Field], access: impl Fn(&str) -> String) -> String {
    let live: Vec<&Field> = fields.iter().filter(|f| !f.skip).collect();
    let mut s = String::from("__w.open(b'{');\n");
    for (i, f) in live.iter().enumerate() {
        s.push_str(&format!(
            "__w.field({first}, {key:?}); {SER}({value}, __w);\n",
            first = i == 0,
            key = format!("{:?}:", f.name),
            value = access(&f.name)
        ));
    }
    s.push_str(&format!("__w.close(b'}}', {});\n", live.is_empty()));
    s
}

/// Statements writing `[…,…]` for the given element expressions.
fn gen_write_array(items: &[String]) -> String {
    let mut s = String::from("__w.open(b'[');\n");
    for (i, item) in items.iter().enumerate() {
        s.push_str(&format!("__w.element({}); {SER}({item}, __w);\n", i == 0));
    }
    s.push_str(&format!("__w.close(b']', {});\n", items.is_empty()));
    s
}

fn gen_serialize(item: &Item) -> String {
    let body = match item {
        Item::Struct {
            transparent, shape, ..
        } => match shape {
            Shape::Named(fields) => {
                let live: Vec<&Field> = fields.iter().filter(|f| !f.skip).collect();
                if *transparent && live.len() == 1 {
                    format!("{SER}(&self.{}, __w)", live[0].name)
                } else {
                    gen_write_object(fields, |n| format!("&self.{n}"))
                }
            }
            Shape::Tuple(1) => format!("{SER}(&self.0, __w)"),
            Shape::Tuple(n) => {
                let items: Vec<String> = (0..*n).map(|k| format!("&self.{k}")).collect();
                gen_write_array(&items)
            }
            Shape::Unit => "__w.null()".into(),
        },
        Item::Enum { name, variants } => {
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                // A data-carrying variant is `{"Variant":<data>}`.
                let tagged = |pattern: String, data: String| {
                    format!(
                        "{name}::{vn}{pattern} => {{\n __w.open(b'{{');\n __w.field(true, {key:?});\n {data} __w.close(b'}}', false);\n }}\n",
                        key = format!("{vn:?}:")
                    )
                };
                arms.push_str(&match &v.shape {
                    Shape::Unit => format!("{name}::{vn} => __w.str({vn:?}),\n"),
                    Shape::Tuple(1) => tagged("(__f0)".into(), format!("{SER}(__f0, __w);\n")),
                    Shape::Tuple(n) => {
                        let binds = tuple_binds(*n);
                        tagged(format!("({})", binds.join(", ")), gen_write_array(&binds))
                    }
                    Shape::Named(fields) => {
                        let binds: String = fields
                            .iter()
                            .filter(|f| !f.skip)
                            .map(|f| format!("{}, ", f.name))
                            .collect();
                        tagged(
                            format!(" {{ {binds}.. }}"),
                            gen_write_object(fields, str::to_string),
                        )
                    }
                });
            }
            format!("match self {{\n {arms} }}")
        }
    };
    let name = item.name();
    format!(
        "impl ::serde::Serialize for {name} {{\n fn serialize(&self, __w: &mut ::serde::ser::Writer<'_>) {{\n {body}\n }}\n}}"
    )
}

// -------------------------------------------------------------- Deserialize

const DE: &str = "::serde::Deserialize::deserialize(__r)?";

/// The `field: value,` list of a constructor: `live` gives a live field's
/// value, a skipped field takes its default.
fn gen_ctor(fields: &[Field], live: impl Fn(&str) -> String) -> String {
    fields
        .iter()
        .map(|f| match f.skip {
            true => format!("{}: ::core::default::Default::default(),\n", f.name),
            false => format!("{}: {},\n", f.name, live(&f.name)),
        })
        .collect()
}

/// Statements reading an object's members into one `Option` slot per live
/// field — unknown keys skipped, a repeated key read again — followed by
/// the constructor list, where an empty slot falls back to
/// `Deserialize::missing`.
fn gen_read_object(fields: &[Field], ty: &str) -> (String, String) {
    let mut slots = String::new();
    let mut arms = String::new();
    for n in fields.iter().filter(|f| !f.skip).map(|f| &f.name) {
        slots.push_str(&format!(
            "let mut __f_{n} = ::core::option::Option::None;\n"
        ));
        arms.push_str(&format!(
            "{n:?} => __f_{n} = ::core::option::Option::Some({DE}),\n"
        ));
    }
    let read = format!(
        "{slots} let mut __more = __r.begin_object({ty:?})?;\n while __more {{\n match &*__r.key()? {{\n {arms} _ => __r.skip_value()?,\n }}\n __more = __r.more(b'}}')?;\n }}\n"
    );
    let ctor = gen_ctor(fields, |n| {
        format!(
            "match __f_{n} {{\n ::core::option::Option::Some(v) => v,\n ::core::option::Option::None => ::serde::Deserialize::missing({n:?})?,\n }}"
        )
    });
    (read, ctor)
}

/// Statements reading a `len`-element array into `__f0`, `__f1`, ….
fn gen_read_array(len: usize, ty: &str) -> String {
    let mut s = String::new();
    for k in 0..len {
        s.push_str(&format!(
            "__r.tuple({k}, {len}, {ty:?})?;\n let __f{k} = {DE};\n"
        ));
    }
    s.push_str(&format!("__r.tuple({len}, {len}, {ty:?})?;\n"));
    s
}

fn gen_deserialize(item: &Item) -> String {
    let body = match item {
        Item::Struct {
            name,
            transparent,
            shape,
        } => match shape {
            Shape::Named(fields) => {
                let live: Vec<&Field> = fields.iter().filter(|f| !f.skip).collect();
                if *transparent && live.len() == 1 {
                    let ctor = gen_ctor(fields, |_| DE.to_string());
                    format!("::core::result::Result::Ok({name} {{ {ctor} }})")
                } else {
                    let (read, ctor) = gen_read_object(fields, name);
                    format!("{read} ::core::result::Result::Ok({name} {{\n {ctor} }})")
                }
            }
            Shape::Tuple(1) => format!("::core::result::Result::Ok({name}({DE}))"),
            Shape::Tuple(n) => format!(
                "{read} ::core::result::Result::Ok({name}({binds}))",
                read = gen_read_array(*n, name),
                binds = tuple_binds(*n).join(", ")
            ),
            // Written as `null`, read back from any value at all.
            Shape::Unit => format!("__r.skip_value()?;\n ::core::result::Result::Ok({name})"),
        },
        Item::Enum { name, variants } => {
            let mut unit_arms = String::new();
            let mut data_arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.shape {
                    Shape::Unit => unit_arms.push_str(&format!(
                        "{vn:?} => ::core::result::Result::Ok({name}::{vn}),\n"
                    )),
                    Shape::Tuple(1) => data_arms.push_str(&format!(
                        "{vn:?} => ::core::result::Result::Ok({name}::{vn}({DE})),\n"
                    )),
                    Shape::Tuple(n) => data_arms.push_str(&format!(
                        "{vn:?} => {{\n {read} ::core::result::Result::Ok({name}::{vn}({binds}))\n }}\n",
                        read = gen_read_array(*n, vn),
                        binds = tuple_binds(*n).join(", ")
                    )),
                    Shape::Named(fields) => {
                        let (read, ctor) = gen_read_object(fields, vn);
                        data_arms.push_str(&format!(
                            "{vn:?} => {{\n {read} ::core::result::Result::Ok({name}::{vn} {{\n {ctor} }})\n }}\n"
                        ));
                    }
                }
            }
            let unknown = format!(
                "other => ::core::result::Result::Err(__r.err(&format!(\"unknown variant `{{other}}` of {name}\"))),\n"
            );
            format!(
                "if __r.peek() == ::core::option::Option::Some(b'\"') {{\n match &*__r.str({name:?})? {{\n {unit_arms} {unknown} }}\n }} else {{\n __r.variant_object({name:?}, |__r, __tag| match __tag {{\n {data_arms} {unknown} }})\n }}"
            )
        }
    };
    let name = item.name();
    format!(
        "impl ::serde::Deserialize for {name} {{\n fn deserialize(__r: &mut ::serde::de::Reader<'_>) -> ::core::result::Result<Self, ::serde::DeError> {{\n {body}\n }}\n}}"
    )
}

/// Derives the shim `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Ok(item) => gen_serialize(&item).parse().unwrap(),
        Err(e) => error(&e),
    }
}

/// Derives the shim `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Ok(item) => gen_deserialize(&item).parse().unwrap(),
        Err(e) => error(&e),
    }
}
