//! Seeded mutation tests of the decoders over the bodies the system really
//! parses from outside: an agent's upload frame (the store's binary record
//! codec, below), and for the JSON decoder a JSON upload (the collector's
//! compat branch), a durable store's manifest, a topology spec (compact
//! and pretty) and a collector `/stats` body.
//!
//! Each body is mutated by bit flips, truncations, splices, duplicated and
//! re-valued members, injected escapes, injected multi-byte UTF-8 and
//! nesting bombs hidden in unknown fields, and every mutant is decoded at
//! its real type. The oracle, for every mutant:
//!
//! * decoding never panics (this runs in the debug profile, so arithmetic
//!   overflow is a panic) and never overflows the stack;
//! * a mutant nested deeper than `MAX_DEPTH` is rejected, wherever the
//!   nesting sits — including inside a field the type does not have;
//! * whatever the typed decoder accepts, `parse_value` accepts too;
//! * an accepted value re-encodes to bytes that decode back to a value
//!   with the same encoding;
//! * a mutation that does not change the document's meaning (a key
//!   spelled with a `\u` escape, an unknown member, a member repeated with
//!   the same value) decodes to the original value.
//!
//! The upload frame gets mutators of its own — bit flips, truncations,
//! splices with another frame, `len` and `count` rewritten (including a
//! `count` of `u32::MAX` over a short body and a `len` past the frame
//! limit), op and record tag bytes set to anything in 0–255 — and half of
//! all mutants are re-sealed (checksum recomputed), so the structural
//! checks behind the checksum are what is tested. Its oracle: decoding
//! never panics; a mutant that is not re-sealed is refused unless it is
//! the original; an accepted frame's records re-encode to a frame that
//! decodes to the same records.
//!
//! Segment files get mutators of their own too — bit flips, truncations,
//! trailing bytes, a run of bytes zeroed or spliced in from another
//! segment, and header fields (`count`, the sorted flag and its padding,
//! the bounds, the checksum) rewritten. A mutant is read two ways: by a
//! live store whose extent it persists was evicted (a whole-history scan,
//! and a window scan), and by recovery. Oracle: nothing panics, and every
//! mutant but the original itself comes back as an `Err` from the
//! whole-history scan and from recovery.
//!
//! Deterministic: the only randomness is a counter-seeded generator.

mod upload_frame;

use pingmesh::dsa::durable::decode_upload_frame;
use pingmesh::dsa::store::{CosmosStore, StreamName};
use pingmesh::dsa::{unique_dir, DirGuard};
use pingmesh::realmode::collector::CollectorStats;
use pingmesh::topology::{DcSpec, TopologySpec};
use pingmesh::types::{
    DcId, PodId, PodsetId, ProbeKind, ProbeOutcome, ProbeRecord, QosClass, ServerId, SimDuration,
    SimTime,
};
use serde::de::MAX_DEPTH;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// SplitMix64: small, seedable, good enough to pick positions.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

// ------------------------------------------------------------- the corpus

fn upload_body() -> Vec<u8> {
    let records: Vec<ProbeRecord> = (0..12u32)
        .map(|i| ProbeRecord {
            ts: SimTime(u64::from(i) * 600_000_123),
            src: ServerId(i),
            dst: ServerId(4_000_000_000 - i),
            src_pod: PodId(i / 4),
            dst_pod: PodId(7),
            src_podset: PodsetId(i / 8),
            dst_podset: PodsetId(1),
            src_dc: DcId(0),
            dst_dc: DcId(i % 2),
            kind: match i % 3 {
                0 => ProbeKind::TcpSyn,
                1 => ProbeKind::TcpPayload(1_000 + i),
                _ => ProbeKind::Http,
            },
            qos: if i % 2 == 0 {
                QosClass::High
            } else {
                QosClass::Low
            },
            src_port: 32_768 + i as u16,
            dst_port: 8_100,
            outcome: match i % 4 {
                0 => ProbeOutcome::Timeout,
                1 => ProbeOutcome::Refused,
                _ => ProbeOutcome::Success {
                    rtt: SimDuration::from_micros(250 + u64::from(i) * 3_000_000),
                },
            },
        })
        .collect();
    serde_json::to_vec(&records).unwrap()
}

fn spec() -> TopologySpec {
    TopologySpec {
        dcs: vec![DcSpec::tiny("DC \"one\""), DcSpec::medium("DC2/é")],
    }
}

fn stats_body() -> Vec<u8> {
    serde_json::to_vec(&CollectorStats {
        records: 3_000_000,
        logical_bytes: u64::MAX,
        physical_bytes: 0,
    })
    .unwrap()
}

/// A store directory with a checkpointed segment, a WAL tail and therefore
/// a manifest that names real files.
fn durable_dir(dir: &Path) {
    let records: Vec<ProbeRecord> = serde_json::from_slice(&upload_body()).unwrap();
    let stream = StreamName { dc: DcId(0) };
    let mut store = CosmosStore::durable(dir, 8, 1).unwrap();
    assert!(store.append(stream, &records, SimTime(0)));
    store.checkpoint().unwrap();
    assert!(store.append(stream, &records[..3], SimTime(0)));
    store.sync_wal().unwrap();
}

// -------------------------------------------------------- JSON geography

/// Where a document's members and strings are, found with a scanner that
/// shares nothing with the decoder under test.
#[derive(Default)]
struct Geography {
    /// `"key":value` spans (start of the key's quote, end of the value).
    members: Vec<(usize, usize)>,
    /// Contents of string tokens, without the quotes.
    strings: Vec<(usize, usize)>,
    /// Deepest container nesting.
    depth: usize,
}

fn geography(body: &[u8]) -> Geography {
    let mut geo = Geography::default();
    // Open members: (key start, depth of the object that holds it).
    let mut open: Vec<(usize, usize)> = Vec::new();
    let mut depth = 0usize;
    let mut i = 0;
    let close_members = |open: &mut Vec<(usize, usize)>,
                         members: &mut Vec<(usize, usize)>,
                         depth: usize,
                         end: usize| {
        while open.last().is_some_and(|&(_, d)| d >= depth) {
            members.push((open.pop().unwrap().0, end));
        }
    };
    while i < body.len() {
        match body[i] {
            b'"' => {
                let start = i;
                i += 1;
                while i < body.len() && body[i] != b'"' {
                    i += if body[i] == b'\\' { 2 } else { 1 };
                }
                geo.strings.push((start + 1, i.min(body.len())));
                let after = body[(i + 1).min(body.len())..]
                    .iter()
                    .position(|b| !b.is_ascii_whitespace());
                if after.map(|n| body[i + 1 + n]) == Some(b':') {
                    open.push((start, depth));
                }
            }
            b'[' | b'{' => {
                depth += 1;
                geo.depth = geo.depth.max(depth);
            }
            b']' | b'}' => {
                close_members(&mut open, &mut geo.members, depth, i);
                depth = depth.saturating_sub(1);
            }
            b',' => close_members(&mut open, &mut geo.members, depth, i),
            _ => {}
        }
        i += 1;
    }
    geo
}

// --------------------------------------------------------------- mutators

/// What a mutation promises about the mutant.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Promise {
    /// Nothing: it may or may not still be a document.
    Nothing,
    /// Still a document, meaning exactly what the original meant.
    SameValue,
    /// Nested deeper than the decoder allows.
    TooDeep,
}

const ESCAPES: &[&str] = &[
    "\\n",
    "\\\"",
    "\\\\",
    "\\/",
    "\\u0041",
    "\\u00e9",
    "\\ud83d\\ude00",
    "\\ud800",
    "\\udc00",
    "\\ud800\\u0041",
    "\\ud800\\ud800",
    "\\u12",
    "\\uzzzz",
    "\\u+041",
    "\\x",
    "\\",
];

const UTF8: &[&[u8]] = &[
    "é".as_bytes(),
    "❤".as_bytes(),
    "😀".as_bytes(),
    b"\xe2\x9d",
    b"\x80",
    b"\xff",
    b"\xc0\xaf",
    b"\xed\xa0\x80",
];

fn nest(open: &str, close: &str, n: usize) -> String {
    open.repeat(n) + &close.repeat(n)
}

fn mutate(rng: &mut Rng, body: &[u8], others: &[Vec<u8>]) -> (Vec<u8>, Promise) {
    let geo = geography(body);
    let mut out = body.to_vec();
    let at = rng.below(body.len());
    match rng.below(12) {
        0 => out[at] ^= 1 << rng.below(8),
        1 => out.truncate(at),
        2 => {
            // A slice of this or another body, dropped in somewhere.
            let from = rng.pick(others);
            let a = rng.below(from.len());
            let b = a + rng.below((from.len() - a).min(64) + 1);
            out.splice(at..at, from[a..b].iter().copied());
        }
        3 => {
            // A range cut out.
            let b = at + rng.below((body.len() - at).min(32) + 1);
            out.drain(at..b);
        }
        4 if !geo.members.is_empty() => {
            // The member again, right after itself: last wins, same value.
            let &(a, b) = rng.pick(&geo.members);
            let mut again = vec![b','];
            again.extend_from_slice(&body[a..b]);
            out.splice(b..b, again);
            return (out, Promise::SameValue);
        }
        5 if !geo.members.is_empty() => {
            // One member's key with another member's value, placed before
            // or after the real one.
            let &(a, b) = rng.pick(&geo.members);
            let &(c, d) = rng.pick(&geo.members);
            let key_end = a + body[a..b].iter().position(|&x| x == b':').unwrap_or(0);
            let value_start = c + body[c..d].iter().position(|&x| x == b':').unwrap_or(0);
            let mut fake = body[a..key_end].to_vec();
            fake.extend_from_slice(&body[value_start..d]);
            if rng.below(2) == 0 {
                fake.push(b',');
                out.splice(a..a, fake);
            } else {
                fake.insert(0, b',');
                out.splice(b..b, fake);
            }
        }
        6 if !geo.strings.is_empty() => {
            let &(a, b) = rng.pick(&geo.strings);
            let at = a + rng.below(b - a + 1);
            out.splice(at..at, rng.pick(ESCAPES).bytes());
        }
        7 if !geo.members.is_empty() => {
            // A key's first character as its `\u` escape: the same key.
            let &(a, _) = rng.pick(&geo.members);
            let first = body[a + 1];
            if first.is_ascii_alphanumeric() {
                out.splice(a + 1..a + 2, format!("\\u{:04x}", first).bytes());
                return (out, Promise::SameValue);
            }
        }
        8 => {
            out.splice(at..at, rng.pick(UTF8).iter().copied());
        }
        9 if !geo.members.is_empty() => {
            // A well-formed unknown member, nested up to what the limit
            // leaves under the member's own depth. Not beside an only
            // member: that object may be an enum's, which must keep its
            // single key.
            let &(a, b) = rng.pick(&geo.members);
            let room = MAX_DEPTH.saturating_sub(geo.depth);
            if body[b] != b',' || room == 0 {
                return (out, Promise::Nothing);
            }
            let n = rng.below(room);
            let value = match rng.below(3) {
                0 => nest("[", "]", n + 1),
                1 => nest("{\"k\":", "}", n + 1).replace(":}", ":1}"),
                _ => nest("[", "]", n + 1).replace("[]", "[\"\\ud83d\\ude00\",-1.5e-3,null]"),
            };
            out.splice(a..a, format!("\"not a field\":{value},").bytes());
            return (out, Promise::SameValue);
        }
        10 if !geo.members.is_empty() => {
            // A bomb in an unknown member: closed or not, a little past
            // the limit or absurdly.
            let &(a, _) = rng.pick(&geo.members);
            let n = *rng.pick(&[MAX_DEPTH, MAX_DEPTH + 1, 1_000, 100_000]);
            let bomb = match rng.below(4) {
                0 => nest("[", "]", n),
                1 => "[".repeat(n),
                2 => nest("{\"k\":", "}", n),
                _ => "{\"k\":".repeat(n),
            };
            out.splice(a..a, format!("\"bomb\":{bomb},").bytes());
            return (out, Promise::TooDeep);
        }
        _ => {
            // A digit run made longer: range checks, float fallbacks.
            if let Some(d) = body[at..].iter().position(u8::is_ascii_digit) {
                let extra = *rng.pick(&["0000000000000000000000", "e400", ".5", "e3", "-", "."]);
                out.splice(at + d..at + d, extra.bytes());
            }
        }
    }
    (out, Promise::Nothing)
}

// ----------------------------------------------------------------- oracle

/// The part of `mutant` that differs from `original`, with some context,
/// for failure messages.
fn changed_part(original: &[u8], mutant: &[u8]) -> String {
    let prefix = original
        .iter()
        .zip(mutant)
        .take_while(|(a, b)| a == b)
        .count();
    let suffix = original[prefix..]
        .iter()
        .rev()
        .zip(mutant[prefix..].iter().rev())
        .take_while(|(a, b)| a == b)
        .count();
    let from = prefix.saturating_sub(60);
    let to = (mutant.len() - suffix + 60).min(mutant.len());
    format!(
        "…{}… (mutated at byte {prefix})",
        String::from_utf8_lossy(&mutant[from..to])
    )
}

/// Decodes `mutant` as `T` and checks everything the oracle promises;
/// returns whether it was accepted.
fn check<T: Serialize + Deserialize>(original: &[u8], mutant: &[u8], promise: Promise) -> bool {
    let typed = serde_json::from_slice::<T>(mutant);
    let tree = serde_json::from_slice::<serde_json::Value>(mutant);
    let shown = changed_part(original, mutant);
    if let Ok(tree) = &tree {
        let text = serde_json::to_string(tree).unwrap();
        let again = serde_json::parse_value(&text).expect("a Value's encoding parses");
        assert_eq!(serde_json::to_string(&again).unwrap(), text, "{shown}");
    }
    if promise == Promise::TooDeep {
        assert!(typed.is_err(), "typed decode accepted a bomb: {shown:.300}");
        assert!(tree.is_err(), "parse_value accepted a bomb: {shown:.300}");
    }
    let Ok(value) = typed else {
        assert_ne!(promise, Promise::SameValue, "rejected: {shown}");
        return false;
    };
    assert!(
        tree.is_ok(),
        "typed decode accepted what parse_value rejects: {shown}"
    );
    assert!(
        geography(mutant).depth <= MAX_DEPTH,
        "accepted past the depth limit: {shown:.300}"
    );
    let encoded = serde_json::to_vec(&value).unwrap();
    let back: T = serde_json::from_slice(&encoded).expect("an accepted value's encoding decodes");
    assert_eq!(serde_json::to_vec(&back).unwrap(), encoded, "{shown}");
    if promise == Promise::SameValue {
        let first: T = serde_json::from_slice(original).unwrap();
        assert_eq!(
            encoded,
            serde_json::to_vec(&first).unwrap(),
            "meaning changed: {shown}"
        );
    }
    true
}

fn run<T: Serialize + Deserialize>(name: &str, body: &[u8], others: &[Vec<u8>], rounds: usize) {
    assert!(check::<T>(body, body, Promise::SameValue), "{name}");
    let mut rng = Rng(name.bytes().map(u64::from).sum());
    let mut accepted = 0;
    for _ in 0..rounds {
        // One mutation, or a second on top of it.
        let (mut mutant, mut promise) = mutate(&mut rng, body, others);
        if rng.below(4) == 0 && !mutant.is_empty() {
            let (twice, second) = mutate(&mut rng, &mutant, others);
            promise = match (promise, second) {
                (Promise::TooDeep, _) | (_, Promise::TooDeep) => Promise::Nothing,
                (Promise::SameValue, Promise::SameValue) => Promise::SameValue,
                _ => Promise::Nothing,
            };
            mutant = twice;
        }
        accepted += usize::from(check::<T>(body, &mutant, promise));
    }
    // The corpus must exercise both verdicts to mean anything.
    assert!(accepted > rounds / 20, "{name}: only {accepted} accepted");
    assert!(accepted < rounds, "{name}: nothing rejected");
}

#[test]
fn mutated_bodies_never_panic_and_accepted_values_are_stable() {
    let pretty_spec = serde_json::to_string_pretty(&spec()).unwrap().into_bytes();
    let bodies = vec![
        upload_body(),
        serde_json::to_vec(&spec()).unwrap(),
        pretty_spec,
        stats_body(),
    ];
    run::<Vec<ProbeRecord>>("upload", &bodies[0], &bodies, 4_000);
    run::<TopologySpec>("spec", &bodies[1], &bodies, 2_000);
    run::<TopologySpec>("spec-pretty", &bodies[2], &bodies, 2_000);
    run::<CollectorStats>("stats", &bodies[3], &bodies, 2_000);
}

#[test]
fn mutated_manifests_never_panic_the_store_open() {
    let template = unique_dir("codec-mutation");
    let _guard = DirGuard::new(template.clone());
    durable_dir(&template);
    let manifest = std::fs::read(template.join("MANIFEST")).unwrap();
    let files: Vec<_> = std::fs::read_dir(&template)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    let others = vec![manifest.clone(), upload_body()];

    let mut rng = Rng(0x4d41_4e49);
    let (mut opened, mut refused) = (0, 0);
    for round in 0..300 {
        let (mutant, promise) = mutate(&mut rng, &manifest, &others);
        // Recovery rewrites the directory it opens: each mutant gets its
        // own copy of the template.
        let dir = unique_dir(&format!("codec-mutation-{round}"));
        let _guard = DirGuard::new(dir.clone());
        std::fs::create_dir_all(&dir).unwrap();
        for file in &files {
            std::fs::copy(file, dir.join(file.file_name().unwrap())).unwrap();
        }
        std::fs::write(dir.join("MANIFEST"), &mutant).unwrap();

        let parses = serde_json::from_slice::<serde_json::Value>(&mutant).is_ok();
        match CosmosStore::durable(&dir, 8, 1) {
            Ok(store) => {
                assert!(parses, "opened on a manifest that is not JSON");
                assert_ne!(promise, Promise::TooDeep);
                opened += 1;
                drop(store);
            }
            Err(_) => {
                assert_ne!(
                    promise,
                    Promise::SameValue,
                    "refused an equivalent manifest"
                );
                refused += 1;
            }
        }
    }
    assert!(
        opened > 0 && refused > 0,
        "{opened} opened, {refused} refused"
    );
}

// ------------------------------------------------------------ segment files

/// One 10-minute window, µs.
const W: u64 = 600_000_000;

/// Offsets in a segment header.
const SEG_HEADER: usize = 48;

/// A store directory holding four segments, one per window, and a store
/// open on it with the first three evicted (their windows are frozen).
fn segment_store(dir: &Path) -> CosmosStore {
    let records: Vec<ProbeRecord> = serde_json::from_slice(&upload_body()).unwrap();
    let stream = StreamName { dc: DcId(0) };
    let mut store = CosmosStore::durable(dir, 8, 1).unwrap();
    for w in 0..4u64 {
        let window: Vec<ProbeRecord> = records[..8]
            .iter()
            .enumerate()
            .map(|(i, r)| ProbeRecord {
                ts: SimTime(w * W + i as u64 * 1_000_003),
                ..*r
            })
            .collect();
        assert!(store.append(stream, &window, SimTime(0)));
    }
    store.checkpoint().unwrap();
    assert_eq!(store.resident_records(), 8, "three windows evicted");
    store
}

fn seg_path(dir: &Path, id: u64) -> std::path::PathBuf {
    dir.join(format!("seg-{id}.dat"))
}

fn mutate_segment(rng: &mut Rng, body: &[u8], other: &[u8]) -> Vec<u8> {
    let mut out = body.to_vec();
    let at = rng.below(body.len());
    let field = |out: &mut Vec<u8>, at: usize, bytes: &[u8]| {
        out[at..at + bytes.len()].copy_from_slice(bytes);
    };
    match rng.below(8) {
        0 => out[at] ^= 1 << rng.below(8),
        1 => out.truncate(at),
        2 => out.extend((0..1 + rng.below(130)).map(|_| rng.next() as u8)),
        3 => {
            let n = (1 + rng.below(96)).min(out.len() - at);
            out[at..at + n].fill(0);
        }
        4 => {
            // The same bytes of another segment (of the same length)
            // written over.
            let n = (1 + rng.below(128)).min(out.len() - at);
            out[at..at + n].copy_from_slice(&other[at..at + n]);
        }
        5 => {
            let counts = [0u32, 1, 7, 9, 16, u32::MAX, rng.next() as u32];
            field(&mut out, 12, &rng.pick(&counts).to_le_bytes());
        }
        6 => {
            // The sorted flag, or a padding byte after it.
            let b = 16 + rng.below(8);
            out[b] = rng.below(256) as u8;
        }
        _ => {
            // A bound or the checksum.
            let off = *rng.pick(&[24usize, 32, 40]);
            let v = match rng.below(3) {
                0 => 0u64,
                1 => u64::MAX,
                _ => rng.next(),
            };
            field(&mut out, off, &v.to_le_bytes());
        }
    }
    out
}

#[test]
fn mutated_segments_never_panic_and_always_fail_the_read() {
    let template = unique_dir("segment-mutation");
    let _guard = DirGuard::new(template.clone());
    let store = segment_store(&template);
    let (all_from, all_to) = (SimTime(0), SimTime(u64::MAX));
    let whole: Vec<ProbeRecord> = store
        .scan_all_window_chunks(all_from, all_to)
        .records()
        .collect();
    let segments: Vec<Vec<u8>> = (0..4)
        .map(|id| std::fs::read(seg_path(&template, id)).unwrap())
        .collect();
    assert!(segments.iter().all(|s| s.len() == SEG_HEADER + 8 * 64));

    // Read back by the live store: the evicted segments 0..3.
    let mut rng = Rng(0x5345_474d);
    for round in 0..600 {
        let id = rng.below(3);
        let mutant = mutate_segment(&mut rng, &segments[id], &segments[(id + 1) % 4]);
        std::fs::write(seg_path(&template, id as u64), &mutant).unwrap();
        let from = SimTime(id as u64 * W + 2_000_000);
        let _ = store.try_scan_all_window_chunks(from, from + SimDuration::from_secs(4));
        match store.try_scan_all_window_chunks(all_from, all_to) {
            Ok(chunks) => {
                assert!(mutant == segments[id], "round {round}: a mutant read back");
                let flat: Vec<ProbeRecord> = chunks.records().collect();
                assert_eq!(flat, whole);
            }
            Err(_) => assert!(
                mutant != segments[id],
                "round {round}: the original refused"
            ),
        }
        std::fs::write(seg_path(&template, id as u64), &segments[id]).unwrap();
    }
    drop(store);

    // Read by recovery: every segment, evicted or not.
    let files: Vec<_> = std::fs::read_dir(&template)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    let mut refused = 0;
    for round in 0..150 {
        let id = rng.below(4);
        let mutant = mutate_segment(&mut rng, &segments[id], &segments[(id + 1) % 4]);
        let dir = unique_dir(&format!("segment-mutation-{round}"));
        let _guard = DirGuard::new(dir.clone());
        std::fs::create_dir_all(&dir).unwrap();
        for file in &files {
            std::fs::copy(file, dir.join(file.file_name().unwrap())).unwrap();
        }
        std::fs::write(seg_path(&dir, id as u64), &mutant).unwrap();
        match CosmosStore::durable(&dir, 8, 1) {
            Ok(_) => assert!(mutant == segments[id], "round {round}: recovered a mutant"),
            Err(_) => {
                assert!(
                    mutant != segments[id],
                    "round {round}: the original refused"
                );
                refused += 1;
            }
        }
    }
    assert!(refused > 100, "only {refused} refused");
}

// ------------------------------------------------------------ upload frame

fn mutate_frame(rng: &mut Rng, body: &[u8], other: &[u8]) -> Vec<u8> {
    let mut out = body.to_vec();
    let at = rng.below(body.len());
    let records = (body.len().saturating_sub(upload_frame::FIRST_RECORD) / 64).max(1);
    match rng.below(7) {
        0 => out[at] ^= 1 << rng.below(8),
        1 => out.truncate(at),
        2 => {
            // A slice of another frame, spliced in or written over.
            let a = rng.below(other.len());
            let b = a + rng.below((other.len() - a).min(4_096) + 1);
            if rng.below(2) == 0 {
                out.splice(at..at, other[a..b].iter().copied());
            } else {
                let n = (b - a).min(out.len() - at);
                out[at..at + n].copy_from_slice(&other[a..a + n]);
            }
        }
        3 if out.len() >= 4 => {
            // The frame limit is 64 MiB.
            let real = body.len() as u32 - 12;
            let lens = [
                0,
                1,
                24,
                25,
                real.saturating_sub(64),
                real - 1,
                real + 1,
                real + 64,
                64 << 20,
                (64 << 20) + 1,
                u32::MAX,
                rng.next() as u32,
            ];
            out[0..4].copy_from_slice(&rng.pick(&lens).to_le_bytes());
        }
        4 if out.len() >= upload_frame::FIRST_RECORD => {
            let real = records as u32;
            let counts = [
                0,
                1,
                real - 1,
                real + 1,
                real * 2,
                u32::MAX,
                rng.next() as u32,
            ];
            let count = upload_frame::FIRST_RECORD - 4;
            out[count..count + 4].copy_from_slice(&rng.pick(&counts).to_le_bytes());
        }
        5 if out.len() > 12 => out[12] = rng.below(256) as u8,
        _ => {
            // A record's kind, qos or outcome tag.
            let tag = upload_frame::FIRST_RECORD + rng.below(records) * 64 + 40 + rng.below(3);
            if tag < out.len() {
                out[tag] = rng.below(256) as u8;
            }
        }
    }
    out
}

#[test]
fn mutated_upload_frames_never_panic_and_accepted_frames_are_stable() {
    let records = upload_frame::records();
    assert_eq!(records.len() as u64, upload_frame::RECORDS);
    let body = upload_frame::frame(&records);
    assert_eq!(decode_upload_frame(&body).unwrap(), records);
    let shifted: Vec<ProbeRecord> = records[..700]
        .iter()
        .map(|r| ProbeRecord {
            ts: SimTime(r.ts.as_micros() / 3),
            src_dc: DcId(9),
            ..*r
        })
        .collect();
    let other = upload_frame::frame(&shifted);

    let mut rng = Rng(0x4652_414d);
    let (mut accepted, mut refused) = (0, 0);
    for round in 0..1_000 {
        let mut mutant = mutate_frame(&mut rng, &body, &other);
        if rng.below(4) == 0 && !mutant.is_empty() {
            mutant = mutate_frame(&mut rng, &mutant, &other);
        }
        let resealed = round % 2 == 1;
        if resealed {
            upload_frame::reseal(&mut mutant);
        }
        match decode_upload_frame(&mutant) {
            Ok(decoded) => {
                assert!(
                    resealed || mutant == body,
                    "round {round}: a mutant that was not re-sealed was accepted"
                );
                let again =
                    decode_upload_frame(&upload_frame::frame(&decoded)).expect("re-encoded");
                assert_eq!(again, decoded, "round {round}");
                accepted += usize::from(resealed);
            }
            Err(_) => refused += usize::from(resealed),
        }
    }
    // The re-sealed half must exercise both verdicts to mean anything.
    assert!(accepted > 20, "only {accepted} re-sealed mutants accepted");
    assert!(refused > 20, "only {refused} re-sealed mutants refused");
}
