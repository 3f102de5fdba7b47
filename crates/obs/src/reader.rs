//! Journal reading: parse JSONL records, verify sealed segments,
//! tolerate a torn tail in each unsealed (active or crashed) segment,
//! and refuse schema versions this reader does not understand.
//!
//! A line is walked once (the crate's `json` module): the same pass that
//! validates it as flat JSON fills the record's header and a compact
//! index of its other fields. A [`Record`] is the validated line plus
//! that index — two allocations, no per-key or per-value `String`.

use std::borrow::Cow;
use std::path::Path;

use capgpu_telemetry::journal::SCHEMA_VERSION;

use crate::crc::crc32;
use crate::json::{walk_object, Scalar, Span};
use crate::rotate::list_segments;
use crate::{ObsError, Result};

/// One non-header field of a record: where its key sits in the line,
/// and its value.
#[derive(Debug, Clone, Copy)]
struct Field {
    key: Span,
    value: Scalar,
}

// The index is most of what a scanned journal keeps resident.
const _: () = assert!(std::mem::size_of::<Field>() == 24);

/// One parsed journal record.
#[derive(Clone)]
pub struct Record {
    /// Journal schema version (`"v"`).
    pub schema_version: u64,
    /// Control period index.
    pub period: u64,
    /// Record clock (sim seconds in deterministic runs).
    pub t_s: f64,
    /// The validated line. A kind whose body carries escapes (this
    /// repo's writer emits none) is unwound once and appended, so that
    /// [`Record::kind`] can hand out a plain `&str` either way.
    text: Box<str>,
    /// Where the (unwound) event kind sits in `text`.
    kind: Span,
    /// Every field but `v`, `period`, `t_s` and `kind`, in document
    /// order.
    fields: Box<[Field]>,
}

impl Record {
    /// Event kind (`"period"`, `"tier_change"`, …).
    pub fn kind(&self) -> &str {
        &self.text[self.kind.range()]
    }

    /// First field named `key`.
    fn get(&self, key: &str) -> Option<Scalar> {
        self.fields
            .iter()
            .find(|f| f.key.text(&self.text) == key)
            .map(|f| f.value)
    }

    /// Field as `u64`.
    pub fn u64(&self, key: &str) -> Option<u64> {
        self.get(key).and_then(Scalar::as_u64)
    }

    /// Field as `f64`.
    pub fn f64(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(Scalar::as_f64)
    }

    /// Field as string: borrowed from the record unless the journal
    /// line spelled it with escapes.
    pub fn str(&self, key: &str) -> Option<Cow<'_, str>> {
        let body = self.get(key)?.as_span()?;
        Some(body.text(&self.text))
    }

    /// Field as bool.
    pub fn bool(&self, key: &str) -> Option<bool> {
        self.get(key).and_then(Scalar::as_bool)
    }
}

impl PartialEq for Record {
    /// Records are equal when they say the same thing — same header,
    /// same keys and values in the same order — however their lines
    /// spelled the numbers and strings.
    fn eq(&self, other: &Self) -> bool {
        self.schema_version == other.schema_version
            && self.period == other.period
            && self.t_s == other.t_s
            && self.kind() == other.kind()
            && self.fields.len() == other.fields.len()
            && self.fields.iter().zip(other.fields.iter()).all(|(a, b)| {
                a.key.text(&self.text) == b.key.text(&other.text)
                    && match (a.value, b.value) {
                        (Scalar::Str(x), Scalar::Str(y)) => {
                            x.text(&self.text) == y.text(&other.text)
                        }
                        (x, y) => x == y,
                    }
            })
    }
}

impl std::fmt::Debug for Record {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Record")
            .field("schema_version", &self.schema_version)
            .field("period", &self.period)
            .field("t_s", &self.t_s)
            .field("kind", &self.kind())
            .field("text", &self.text)
            .finish()
    }
}

/// What the reader learned about one segment file.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentInfo {
    /// Segment index from the file name.
    pub index: u64,
    /// Records parsed out of it (excluding the seal footer).
    pub records: usize,
    /// Whether a seal footer was present and verified.
    pub sealed: bool,
    /// Whether this segment ended in a torn (incomplete) record.
    pub torn: bool,
}

/// A fully scanned journal directory.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JournalScan {
    /// All records across all segments, in (segment, line) order.
    pub records: Vec<Record>,
    /// Per-segment metadata, in index order.
    pub segments: Vec<SegmentInfo>,
    /// The torn final record of the latest segment that ended in one,
    /// when one was dropped (raw text, for diagnostics; bytes that are
    /// not UTF-8 — a crash inside a multi-byte character — shown as
    /// U+FFFD). [`SegmentInfo::torn`] says which segments had one.
    pub torn_tail: Option<String>,
}

fn corrupt_at(source: &str, line: usize, message: &str) -> ObsError {
    ObsError::Corrupt {
        source: source.to_string(),
        line,
        message: message.to_string(),
    }
}

/// Parses one record line.
///
/// # Errors
/// [`ObsError::Corrupt`] on malformed JSON or missing required fields,
/// [`ObsError::SchemaVersion`] on a version this reader does not speak.
pub fn parse_record(line: &str, source: &str, lineno: usize) -> Result<Record> {
    let corrupt = |message: &str| corrupt_at(source, lineno, message);
    // First occurrence of each header key; every occurrence stays out
    // of the field index.
    let (mut v, mut kind, mut period, mut t_s) = (None, None, None, None);
    // A `period` record — nearly every line of a journal — has seven
    // such fields, eight when stamped with `wall_ms`.
    let mut index = Vec::with_capacity(8);
    walk_object(line, |key, value| {
        let slot = match &*key.text(line) {
            "v" => &mut v,
            "kind" => &mut kind,
            "period" => &mut period,
            "t_s" => &mut t_s,
            _ => return index.push(Field { key, value }),
        };
        slot.get_or_insert(value);
    })
    .map_err(|message| corrupt(&message))?;
    let schema_version = v
        .and_then(Scalar::as_u64)
        .ok_or_else(|| corrupt("missing schema version field `v`"))?;
    if schema_version != u64::from(SCHEMA_VERSION) {
        return Err(ObsError::SchemaVersion {
            found: schema_version,
            supported: u64::from(SCHEMA_VERSION),
        });
    }
    let kind = kind
        .and_then(Scalar::as_span)
        .ok_or_else(|| corrupt("missing `kind`"))?;
    let (text, kind) = if kind.escaped() {
        let unwound = kind.text(line);
        (
            format!("{line}{unwound}"),
            Span::new(line.len(), line.len() + unwound.len(), false),
        )
    } else {
        (line.to_string(), kind)
    };
    // The seal footer is the one record shape without period/t_s.
    let (period, t_s) = if &text[kind.range()] == "segment_seal" {
        (0, 0.0)
    } else {
        (
            period
                .and_then(Scalar::as_u64)
                .ok_or_else(|| corrupt("missing `period`"))?,
            t_s.and_then(Scalar::as_f64)
                .ok_or_else(|| corrupt("missing `t_s`"))?,
        )
    };
    Ok(Record {
        schema_version,
        period,
        t_s,
        text: text.into_boxed_str(),
        kind,
        fields: index.into_boxed_slice(),
    })
}

/// Outcome of parsing one segment's bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentScan {
    /// How many records were parsed (seal footer excluded).
    pub records: usize,
    /// The seal footer, if present: `(records, crc32)`.
    pub seal: Option<(u64, u32)>,
    /// Torn final record, if one was dropped.
    pub torn_tail: Option<String>,
}

/// Parses one segment's bytes, appending its records to `records`.
/// With `tolerate_torn_tail` set, a segment that does not end in its
/// seal footer (an active or crashed one) may end in a torn record: a
/// final record that is incomplete — no trailing newline, bytes that are
/// not UTF-8 (the crash landed inside a multi-byte character), or a
/// clean JSON parse failure on the *last* line only — is dropped and
/// reported instead of failing the scan.
/// Mid-file corruption, and anything after a seal footer, is always an
/// error.
///
/// # Errors
/// [`ObsError::Corrupt`] / [`ObsError::SchemaVersion`] as for
/// [`parse_record`]; `records` may then hold some of the segment.
pub fn parse_segment(
    bytes: &[u8],
    source: &str,
    tolerate_torn_tail: bool,
    records: &mut Vec<Record>,
) -> Result<SegmentScan> {
    let corrupt = |line: usize, message: &str| corrupt_at(source, line, message);
    let before = records.len();
    let mut seal = None;
    let mut torn_tail = None;
    // `lines()` would hide a missing trailing newline; split manually.
    let mut rest = bytes;
    let mut lineno = 0usize;
    while !rest.is_empty() {
        lineno += 1;
        let (raw, complete, next) = match rest.iter().position(|&b| b == b'\n') {
            Some(i) => (&rest[..i], true, &rest[i + 1..]),
            None => (rest, false, &[][..]),
        };
        let is_last = next.is_empty();
        if seal.is_some() {
            return Err(corrupt(lineno, "records after the seal footer"));
        }
        if !complete && is_last && tolerate_torn_tail {
            torn_tail = Some(String::from_utf8_lossy(raw).into_owned());
            break;
        }
        let parsed = match std::str::from_utf8(raw) {
            Ok(line) => parse_record(line, source, lineno),
            Err(e) => Err(corrupt(lineno, &format!("not UTF-8: {e}"))),
        };
        match parsed {
            Ok(r) if r.kind() == "segment_seal" => {
                let n = r
                    .u64("records")
                    .ok_or_else(|| corrupt(lineno, "seal footer missing `records`"))?;
                let crc = r
                    .u64("crc32")
                    .ok_or_else(|| corrupt(lineno, "seal footer missing `crc32`"))?;
                let crc = u32::try_from(crc)
                    .map_err(|_| corrupt(lineno, "seal footer crc32 out of range"))?;
                seal = Some((n, crc));
            }
            Ok(r) => records.push(r),
            // A torn final *complete-looking* line (the crash landed
            // mid-flush and the tail bytes happen to include a newline)
            // is not distinguishable; only tolerate parse failures on
            // the very last line of an unsealed segment.
            Err(ObsError::Corrupt { .. }) if is_last && tolerate_torn_tail => {
                torn_tail = Some(String::from_utf8_lossy(raw).into_owned());
            }
            Err(e) => return Err(e),
        }
        rest = next;
    }
    Ok(SegmentScan {
        records: records.len() - before,
        seal,
        torn_tail,
    })
}

/// Scans a journal directory: every segment in index order, seals
/// verified (record count + CRC-32 over the record bytes), and a torn
/// final record tolerated in every unsealed segment. A restarted writer
/// never appends to the segment a crash left behind, so each crash
/// leaves at most one torn record, at the end of its own segment;
/// sealed segments stay strict.
///
/// # Errors
/// [`ObsError::Io`] on filesystem failure, [`ObsError::SealMismatch`]
/// when a sealed segment does not match its footer,
/// [`ObsError::Corrupt`] / [`ObsError::SchemaVersion`] on bad records.
pub fn read_dir(dir: &Path) -> Result<JournalScan> {
    let mut scan = JournalScan::default();
    for (index, path) in &list_segments(dir)? {
        // Bytes, not `read_to_string`: a crash can tear the tail inside
        // a multi-byte character, and that must not fail the scan.
        let bytes = std::fs::read(path)?;
        let source = path.display().to_string();
        let seg = parse_segment(&bytes, &source, true, &mut scan.records)?;
        let mut sealed = false;
        if let Some((n, crc)) = seg.seal {
            if n != seg.records as u64 {
                return Err(ObsError::SealMismatch {
                    segment: *index,
                    message: format!("footer says {n} records, found {}", seg.records),
                });
            }
            // CRC covers every byte before the footer, which is always
            // the final line of a sealed segment.
            let trimmed = bytes.strip_suffix(b"\n").unwrap_or(&bytes);
            let body_len = trimmed
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |i| i + 1);
            let measured = crc32(&bytes[..body_len]);
            if measured != crc {
                return Err(ObsError::SealMismatch {
                    segment: *index,
                    message: format!("footer crc32 {crc}, measured {measured}"),
                });
            }
            sealed = true;
        }
        scan.segments.push(SegmentInfo {
            index: *index,
            records: seg.records,
            sealed,
            torn: seg.torn_tail.is_some(),
        });
        if seg.torn_tail.is_some() {
            scan.torn_tail = seg.torn_tail;
        }
    }
    Ok(scan)
}

/// Parses free-standing JSONL (no segment framing): convenience for
/// in-memory journals and tests.
///
/// # Errors
/// As for [`parse_record`]; the torn tail is tolerated when
/// `tolerate_torn_tail` is set.
pub fn parse_jsonl(text: &str, tolerate_torn_tail: bool) -> Result<(Vec<Record>, Option<String>)> {
    let mut records = Vec::new();
    let seg = parse_segment(
        text.as_bytes(),
        "<memory>",
        tolerate_torn_tail,
        &mut records,
    )?;
    Ok((records, seg.torn_tail))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::oracle::{dom_value, parse_object, same, walk_to_dom, JsonValue};
    use crate::rotate::{segment_file_name, JournalWriter, RotationConfig};
    use capgpu_telemetry::journal::{Event, Value};
    use proptest::prelude::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "capgpu-obs-reader-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn line(i: u64) -> String {
        format!(
            "{{\"v\":1,\"period\":{i},\"t_s\":{},\"kind\":\"period\",\"tier\":0,\"watts\":899.5}}",
            4 * i
        )
    }

    /// A segment exactly as the build before the slicing-by-8 CRC (and
    /// the single-`write` append) sealed it: three records — escapes,
    /// multi-byte characters, a 16-digit float — and the footer.
    const SEALED_BY_AN_EARLIER_BUILD: &str = concat!(
        "{\"v\":1,\"period\":0,\"t_s\":0,\"kind\":\"period\",\"tier\":0,\"watts\":899.5,\"targets\":\"1350,1425.5\"}\n",
        "{\"v\":1,\"period\":1,\"t_s\":4,\"kind\":\"note\",\"msg\":\"café \\\"\\u00e9\\\" 电源\"}\n",
        "{\"v\":1,\"period\":2,\"t_s\":8,\"kind\":\"refit\",\"scale\":1.0625,\"offset_w\":441.3482302132805}\n",
        "{\"v\":1,\"kind\":\"segment_seal\",\"segment\":0,\"records\":3,\"crc32\":1793077177}\n",
    );

    #[test]
    fn parses_records_and_fields() {
        let r = parse_record(&line(7), "<t>", 1).unwrap();
        assert_eq!(r.period, 7);
        assert_eq!(r.t_s, 28.0);
        assert_eq!(r.kind(), "period");
        assert_eq!(r.u64("tier"), Some(0));
        assert_eq!(r.f64("watts"), Some(899.5));
        assert_eq!(r.str("nope"), None);
    }

    #[test]
    fn accessors_unwind_escapes_and_hide_the_header() {
        let r = parse_record(
            r#"{"v":1,"period":3,"t_s":12.5,"kind":"note","msg":"a\"b\\c\n\u00e9","path":"/etc/café","n":-2,"big":9007199254740992,"none":null,"ok":true,"msg":"second","k\u0065y":1,"period":9}"#,
            "<t>",
            1,
        )
        .unwrap();
        // Escaped bodies come back unwound (owned), plain ones borrowed.
        assert_eq!(r.str("msg").as_deref(), Some("a\"b\\c\n\u{e9}"));
        assert!(matches!(r.str("msg"), Some(Cow::Owned(_))));
        assert!(matches!(r.str("path"), Some(Cow::Borrowed("/etc/café"))));
        // A key spelled with escapes is found under its real name.
        assert_eq!(r.u64("key"), Some(1));
        // Typed accessors refuse the other types.
        assert_eq!(r.f64("n"), Some(-2.0));
        assert_eq!(r.u64("n"), None);
        assert_eq!(r.u64("big"), Some(1 << 53));
        assert_eq!(
            (r.f64("none"), r.str("none"), r.bool("none")),
            (None, None, None)
        );
        assert_eq!(
            (r.bool("ok"), r.u64("ok"), r.str("ok")),
            (Some(true), None, None)
        );
        assert_eq!(
            (r.str("n"), r.bool("msg"), r.f64("msg")),
            (None, None, None)
        );
        // Unknown keys, and the header keys — which live in the public
        // fields, first occurrence winning — are not fields.
        assert_eq!((r.u64("nope"), r.str("nope")), (None, None));
        assert_eq!(
            (r.u64("v"), r.u64("period"), r.f64("t_s")),
            (None, None, None)
        );
        assert_eq!(r.str("kind"), None);
        assert_eq!((r.schema_version, r.period, r.t_s), (1, 3, 12.5));
        // A kind spelled with escapes still reads as plain text, and
        // such a seal footer is still a seal footer.
        let r = parse_record(
            r#"{"v":1,"kind":"segment\u005fseal","records":2}"#,
            "<t>",
            1,
        )
        .unwrap();
        assert_eq!(r.kind(), "segment_seal");
        assert_eq!((r.period, r.u64("records")), (0, Some(2)));
        // Equality is about content, not spelling.
        let a = parse_record(
            r#"{"v":1,"period":1,"t_s":4,"kind":"k","x":10,"s":"é"}"#,
            "a",
            1,
        );
        let b = parse_record(
            r#" {"v":1.0, "period":1, "t_s":4e0, "kind":"\u006b", "x":1e1, "s":"\u00e9"} "#,
            "b",
            2,
        );
        assert_eq!(a.unwrap(), b.unwrap());
    }

    #[test]
    fn unknown_major_version_is_rejected_with_a_clear_error() {
        let err = parse_record(
            "{\"v\":2,\"period\":0,\"t_s\":0,\"kind\":\"period\"}",
            "<t>",
            1,
        )
        .unwrap_err();
        match &err {
            ObsError::SchemaVersion { found, supported } => {
                assert_eq!((*found, *supported), (2, 1));
            }
            other => panic!("wrong error {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("version 2"), "{msg}");
        assert!(msg.contains("version 1"), "{msg}");
        // Missing version field: corruption, not a silent default.
        let err =
            parse_record("{\"period\":0,\"t_s\":0,\"kind\":\"period\"}", "<t>", 1).unwrap_err();
        assert!(err.to_string().contains("schema version"), "{err}");
    }

    #[test]
    fn torn_tail_is_tolerated_only_at_the_end() {
        let mut text = format!("{}\n{}\n", line(0), line(1));
        text.push_str("{\"v\":1,\"period\":2,\"t_s\":8,\"ki");
        let (records, torn) = parse_jsonl(&text, true).unwrap();
        assert_eq!(records.len(), 2);
        assert!(torn.unwrap().contains("\"period\":2"));
        // The same text is a hard error when tolerance is off.
        assert!(parse_jsonl(&text, false).is_err());
        // Mid-file garbage is always a hard error.
        let bad = format!("{}\ngarbage\n{}\n", line(0), line(1));
        assert!(parse_jsonl(&bad, true).is_err());
    }

    #[test]
    fn round_trips_a_rotated_directory_and_verifies_seals() {
        let dir = tmpdir("roundtrip");
        let cfg = RotationConfig {
            max_segment_bytes: 200,
            max_segment_age_s: f64::INFINITY,
            retain_segments: 32,
        };
        let mut w = JournalWriter::create(&dir, cfg).unwrap();
        for i in 0..12 {
            w.append(&line(i), 4.0 * i as f64).unwrap();
        }
        // No final seal: the last segment stays active, as in a crash.
        let scan = read_dir(&dir).unwrap();
        assert_eq!(scan.records.len(), 12);
        assert!(scan.segments.len() > 1);
        for s in &scan.segments[..scan.segments.len() - 1] {
            assert!(s.sealed, "segment {} should be sealed", s.index);
        }
        assert!(!scan.segments.last().unwrap().sealed);
        assert_eq!(scan.torn_tail, None);
        // Periods arrive in order.
        let periods: Vec<u64> = scan.records.iter().map(|r| r.period).collect();
        assert_eq!(periods, (0..12).collect::<Vec<_>>());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segments_sealed_by_an_earlier_build_verify_and_are_what_this_one_writes() {
        let dir = tmpdir("earlier");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(segment_file_name(0)), SEALED_BY_AN_EARLIER_BUILD).unwrap();
        let scan = read_dir(&dir).unwrap();
        assert!(scan.segments[0].sealed);
        assert_eq!(scan.records.len(), 3);
        assert_eq!(
            scan.records[1].str("msg").as_deref(),
            Some("café \"é\" 电源")
        );
        assert_eq!(scan.records[2].f64("offset_w"), Some(441.348_230_213_280_5));
        // And the other way round: this build's writer, given the same
        // lines, seals the same bytes — so the earlier reader verifies
        // what this one writes.
        let mut w = JournalWriter::create(&dir, RotationConfig::default()).unwrap();
        for (i, l) in SEALED_BY_AN_EARLIER_BUILD.lines().take(3).enumerate() {
            w.append(l, 4.0 * i as f64).unwrap();
        }
        w.seal().unwrap();
        let rewritten = std::fs::read_to_string(dir.join(segment_file_name(1))).unwrap();
        assert_eq!(
            rewritten,
            SEALED_BY_AN_EARLIER_BUILD.replace("\"segment\":0", "\"segment\":1")
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipping_a_sealed_byte_is_detected() {
        let dir = tmpdir("crc");
        let cfg = RotationConfig {
            max_segment_bytes: 120,
            max_segment_age_s: f64::INFINITY,
            retain_segments: 32,
        };
        let mut w = JournalWriter::create(&dir, cfg).unwrap();
        for i in 0..8 {
            w.append(&line(i), 4.0 * i as f64).unwrap();
        }
        drop(w);
        // Corrupt one digit inside the first (sealed) segment's body
        // without breaking JSON: 899.5 -> 898.5.
        let path = dir.join(segment_file_name(0));
        let text = std::fs::read_to_string(&path).unwrap();
        let tampered = text.replacen("899.5", "898.5", 1);
        assert_ne!(text, tampered);
        std::fs::write(&path, tampered).unwrap();
        let err = read_dir(&dir).unwrap_err();
        assert!(
            matches!(err, ObsError::SealMismatch { segment: 0, .. }),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_footer_crc_beyond_32_bits_is_corrupt_not_truncated() {
        let beyond = SEALED_BY_AN_EARLIER_BUILD.replace("1793077177", "6088044473"); // + 2^32
        let err = parse_jsonl(&beyond, false).unwrap_err();
        assert!(err.to_string().contains("crc32 out of range"), "{err}");
    }

    #[test]
    fn torn_tail_in_a_crashed_directory_is_tolerated() {
        let dir = tmpdir("torn");
        let cfg = RotationConfig::default();
        let mut w = JournalWriter::create(&dir, cfg).unwrap();
        for i in 0..5 {
            w.append(&line(i), 4.0 * i as f64).unwrap();
        }
        drop(w); // crash: no seal
                 // Append a torn half-record to the active segment.
        use std::io::Write as _;
        let path = dir.join(segment_file_name(0));
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(b"{\"v\":1,\"period\":5,\"t_s\":20,\"kin")
            .unwrap();
        drop(f);
        let scan = read_dir(&dir).unwrap();
        assert_eq!(scan.records.len(), 5);
        assert!(scan.torn_tail.is_some());
        assert!(scan.segments.last().unwrap().torn);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_tail_torn_inside_a_character_is_a_torn_tail_elsewhere_it_is_corrupt() {
        // The crash landed between the two bytes of the `é`.
        let mut torn = format!("{}\n", line(0)).into_bytes();
        torn.extend_from_slice(
            b"{\"v\":1,\"period\":1,\"t_s\":4,\"kind\":\"reload\",\"path\":\"/etc/caf\xc3",
        );
        let dir = tmpdir("utf8");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(segment_file_name(0)), &torn).unwrap();
        let scan = read_dir(&dir).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(scan.segments[0].torn);
        assert!(scan.torn_tail.unwrap().ends_with("/etc/caf\u{fffd}"));
        // The same with the newline already written.
        torn.push(b'\n');
        let mut records = Vec::new();
        let seg = parse_segment(&torn, "<t>", true, &mut records).unwrap();
        assert_eq!((seg.records, seg.torn_tail.is_some()), (1, true));
        // Followed by a record, or by a seal footer: corruption, located.
        let tail = torn.len();
        let footer = "{\"v\":1,\"kind\":\"segment_seal\",\"segment\":0,\"records\":1,\"crc32\":0}";
        for next in [line(2).as_str(), footer] {
            torn.truncate(tail);
            torn.extend_from_slice(next.as_bytes());
            torn.push(b'\n');
            std::fs::write(dir.join(segment_file_name(0)), &torn).unwrap();
            let err = read_dir(&dir).unwrap_err();
            match &err {
                ObsError::Corrupt {
                    source,
                    line,
                    message,
                } => {
                    assert!(source.ends_with("journal.000000.jsonl"), "{source}");
                    assert_eq!(*line, 2);
                    assert!(message.contains("UTF-8"), "{message}");
                }
                other => panic!("wrong error {other:?}"),
            }
        }
        // The final line of an unsealed segment is a torn tail even
        // with a later segment present: a restart opened that one.
        torn.truncate(tail);
        std::fs::write(dir.join(segment_file_name(0)), &torn).unwrap();
        std::fs::write(dir.join(segment_file_name(1)), format!("{}\n", line(2))).unwrap();
        let scan = read_dir(&dir).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert!(scan.segments[0].torn && !scan.segments[1].torn);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // --- differential and round-trip property tests ---

    /// splitmix64: the proptest shim draws one seed per case, the
    /// structured generators below draw everything else from this.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
            xs[self.below(xs.len())]
        }
    }

    const KEYS: [&str; 16] = [
        "watts", "setpoint", "targets", "reason", "device", "on", "msg", "tier", "stale", "a",
        "to_w", "wall_ms", "v", "period", "t_s", "kind",
    ];
    const CHARS: [char; 24] = [
        'a', 'Z', '0', ' ', '"', '\\', '/', ',', ':', '{', '}', '[', 'u', 'n', '\n', '\t', '\r',
        '\u{0}', '\u{8}', '\u{1f}', '\u{7f}', 'é', '电', '😀',
    ];
    const FLOATS: [f64; 12] = [
        0.0,
        -0.0,
        1.0,
        -1.5e-300,
        9_007_199_254_740_992.0,
        999_999_999_999_999.0,
        1e15,
        441.348_230_213_280_5,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::NAN,
        f64::NEG_INFINITY,
    ];

    fn arbitrary_text(rng: &mut Rng) -> String {
        (0..rng.below(12)).map(|_| rng.pick(&CHARS)).collect()
    }

    fn arbitrary_f64(rng: &mut Rng) -> f64 {
        if rng.below(3) == 0 {
            rng.pick(&FLOATS)
        } else {
            f64::from_bits(rng.next())
        }
    }

    /// All five `Value` arms, header-colliding and duplicate keys, up to
    /// 20 fields (past the index's inline buffer), `wall_ms` or not.
    fn arbitrary_event(rng: &mut Rng) -> Event {
        let t_s = loop {
            let t = arbitrary_f64(rng).abs();
            if t.is_finite() {
                break t;
            }
        };
        let kind = rng.pick(&["period", "tier_change", "note", "segment_seal"]);
        let mut e = Event::new(rng.next() >> rng.below(64), t_s, kind);
        if rng.below(2) == 0 {
            e = e.wall_ms(Some(rng.next() >> 11));
        }
        for _ in 0..rng.below(21) {
            let key = rng.pick(&KEYS);
            e = match rng.below(4) {
                0 => e.u64(key, rng.next() >> rng.below(64)),
                1 => e.f64(key, arbitrary_f64(rng)),
                2 => e.bool(key, rng.below(2) == 0),
                _ => e.str(key, &arbitrary_text(rng)),
            };
        }
        e
    }

    /// One byte replaced, inserted or removed, or the line cut short.
    fn mutate(line: &str, rng: &mut Rng) -> String {
        const BYTES: &[u8] = b"\"\\{}[],:.-+eEun0179 \n\t\x00\x1f\x7f\xc3\xa9\xff";
        let mut bytes = line.as_bytes().to_vec();
        let at = rng.below(bytes.len().max(1));
        match rng.below(4) {
            0 if !bytes.is_empty() => bytes[at] = rng.pick(BYTES),
            1 => bytes.insert(at, rng.pick(BYTES)),
            2 if !bytes.is_empty() => drop(bytes.remove(at)),
            _ => bytes.truncate(at),
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    fn arbitrary_line(rng: &mut Rng) -> String {
        const PIECES: [&str; 24] = [
            "{",
            "}",
            "\"",
            ":",
            ",",
            " ",
            "\\",
            "\\u",
            "00e9",
            "[",
            "]",
            "v",
            "kind",
            "period",
            "t_s",
            "1",
            "-1.5e-300",
            "9007199254740992",
            "null",
            "true",
            "false",
            "é",
            "\n",
            "x",
        ];
        (0..rng.below(30)).map(|_| rng.pick(&PIECES)).collect()
    }

    /// What `parse_record` returns, in the oracle's vocabulary: header,
    /// fields as a DOM; or the error's text.
    type Parsed = std::result::Result<(u64, u64, u64, String, Vec<(String, JsonValue)>), String>;

    fn error_text(e: ObsError) -> String {
        match e {
            ObsError::Corrupt { message, .. } => message,
            other => other.to_string(),
        }
    }

    fn parsed(line: &str) -> Parsed {
        parse_record(line, "<t>", 1)
            .map(|r| {
                let fields = r
                    .fields
                    .iter()
                    .map(|f| {
                        (
                            f.key.text(&r.text).into_owned(),
                            dom_value(f.value, &r.text),
                        )
                    })
                    .collect();
                (
                    r.schema_version,
                    r.period,
                    r.t_s.to_bits(),
                    r.kind().to_string(),
                    fields,
                )
            })
            .map_err(error_text)
    }

    /// `parse_record` as it was on top of the DOM parser.
    fn parsed_by_the_oracle(line: &str) -> Parsed {
        let fields = parse_object(line)?;
        let lookup = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let as_u64 = |v: &JsonValue| match v {
            JsonValue::Num(x) => Scalar::Num(*x).as_u64(),
            _ => None,
        };
        let v = lookup("v")
            .and_then(as_u64)
            .ok_or("missing schema version field `v`")?;
        if v != u64::from(SCHEMA_VERSION) {
            return Err(error_text(ObsError::SchemaVersion {
                found: v,
                supported: u64::from(SCHEMA_VERSION),
            }));
        }
        let kind = match lookup("kind") {
            Some(JsonValue::Str(s)) => s.clone(),
            _ => return Err("missing `kind`".into()),
        };
        let (period, t_s) = if kind == "segment_seal" {
            (0, 0.0)
        } else {
            (
                lookup("period")
                    .and_then(as_u64)
                    .ok_or("missing `period`")?,
                match lookup("t_s") {
                    Some(JsonValue::Num(x)) => *x,
                    _ => return Err("missing `t_s`".into()),
                },
            )
        };
        let fields = fields
            .into_iter()
            .filter(|(k, _)| !matches!(k.as_str(), "v" | "period" | "t_s" | "kind"))
            .collect();
        Ok((v, period, t_s.to_bits(), kind, fields))
    }

    /// The walker against the DOM parser, and `parse_record` against
    /// what it was on top of the DOM parser: same verdict, same error
    /// text, every key and value equal (numbers bit for bit).
    fn agrees_with_the_oracle(line: &str) -> std::result::Result<(), String> {
        let (got, want) = (walk_to_dom(line), parse_object(line));
        if !same(&got, &want) {
            return Err(format!("{line:?}: walker {got:?}, oracle {want:?}"));
        }
        let (got, want) = (parsed(line), parsed_by_the_oracle(line));
        let agree = match (&got, &want) {
            (Ok(g), Ok(w)) => {
                (g.0, g.1, g.2, &g.3) == (w.0, w.1, w.2, &w.3)
                    && same(&Ok(g.4.clone()), &Ok(w.4.clone()))
            }
            (Err(g), Err(w)) => g == w,
            _ => false,
        };
        if agree {
            Ok(())
        } else {
            Err(format!("{line:?}: parse_record {got:?}, oracle {want:?}"))
        }
    }

    #[test]
    fn pinned_lines_agree_with_the_oracle() {
        for line in [
            r#"{"v":1,"period":0,"t_s":0,"kind":"k","x":null,"y":-1.5e-300,"z":9007199254740992}"#,
            r#"{"v":1,"period":0,"t_s":0,"kind":"k","s":"\u00e9\u0000é电😀\"\\\/"}"#,
            r#"{"v":1,"v":2,"period":1,"period":"x","t_s":2,"t_s":null,"kind":"a","kind":7,"x":1,"x":2}"#,
            r#"{"v":2,"period":0,"t_s":0,"kind":"k"}"#,
            r#"{"v":"1","period":0,"t_s":0,"kind":"k"}"#,
            r#"{"v":1,"period":0.5,"t_s":0,"kind":"k"}"#,
            r#"{"v":1,"period":0,"t_s":"0","kind":"k"}"#,
            r#"{"v":1,"period":0,"t_s":0,"kind":null}"#,
            r#"{"\u0076":1,"perio\u0064":4,"t_s":0,"k\u0069nd":"segment\u005fseal","\u0078":1}"#,
            r#"{"v":1,"kind":"segment_seal","segment":0,"records":3,"crc32":6088044473}"#,
            r#"{"v":1,"period":18446744073709551616,"t_s":0,"kind":"k"}"#,
            r#"{"v":1,"period":0,"t_s":1e999,"kind":"k"}"#,
            "{\"v\":1,\"period\":0,\"t_s\":0,\"kind\":\"k\"}\u{e9}",
            "{\"v\":1\u{e9}",
            r#"{"v":1,"period":0,"t_s":0,"kind":"k","s":"\u+041"}"#,
            "{\"v\":1,\"period\":0,\"t_s\":0,\"kind\":\"k\",\"s\":\"a\u{1f}b\"}",
            "{\"v\":1,\"period\":0,\"t_s\":0,\"kind\":\"k\",\"s\":\"a\u{7f}b\"}",
            "{}",
            "",
        ] {
            agrees_with_the_oracle(line).unwrap();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn walker_and_parse_record_agree_with_the_dom_oracle(seed in 0u64..u64::MAX) {
            let mut rng = Rng(seed);
            let valid = arbitrary_event(&mut rng).to_json();
            let checked = agrees_with_the_oracle(&valid);
            prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
            prop_assert!(parse_object(&valid).is_ok(), "{valid}");
            for _ in 0..16 {
                let checked = agrees_with_the_oracle(&mutate(&valid, &mut rng));
                prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
            }
            let checked = agrees_with_the_oracle(&arbitrary_line(&mut rng));
            prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
        }

        /// The codec round trip: whatever `Event::to_json` renders,
        /// `parse_record` reads back — integers up to 2^53 and every
        /// finite float exactly, non-finite floats as null, strings
        /// with their control characters and quotes.
        #[test]
        fn events_round_trip_through_the_journal_line(seed in 0u64..u64::MAX) {
            let mut rng = Rng(seed);
            let mut e = arbitrary_event(&mut rng);
            e.kind = rng.pick(&["period", "tier_change", "note"]);
            e.period >>= 11;
            let line = e.to_json();
            prop_assert!(!line.contains('\n'), "{line:?}");
            let r = parse_record(&line, "<t>", 1).unwrap();
            prop_assert_eq!(r.kind(), e.kind);
            prop_assert_eq!((r.schema_version, r.period), (1, e.period));
            prop_assert_eq!(r.t_s.to_bits(), e.sim_time_s.to_bits());
            let mut written: Vec<(&str, Value)> = Vec::new();
            written.extend(e.wall_unix_ms.map(|ms| ("wall_ms", Value::U64(ms))));
            written.extend(e.fields.iter().cloned());
            for (i, (key, value)) in written.iter().enumerate() {
                if written[..i].iter().any(|(k, _)| k == key) {
                    continue; // first wins
                }
                let got = (r.u64(key), r.f64(key), r.bool(key), r.str(key).map(Cow::into_owned));
                let want = if matches!(*key, "v" | "period" | "t_s" | "kind") {
                    (None, None, None, None)
                } else {
                    match value {
                        Value::U64(x) => {
                            let f = *x as f64;
                            ((f <= 9_007_199_254_740_992.0).then_some(f as u64), Some(f), None, None)
                        }
                        Value::F64(x) if x.is_finite() => (
                            Scalar::Num(*x).as_u64(),
                            // `-0.0` is rendered as the integer `0`.
                            Some(if *x == 0.0 { 0.0 } else { *x }),
                            None,
                            None,
                        ),
                        Value::F64(_) => (None, None, None, None),
                        Value::Bool(b) => (None, None, Some(*b), None),
                        Value::Str(s) => (None, None, None, Some(s.clone())),
                    }
                };
                prop_assert_eq!(got.1.map(f64::to_bits), want.1.map(f64::to_bits));
                prop_assert!(got == want, "{key} in {line}: {got:?} vs {want:?}");
            }
        }
    }

    // --- hostile input ---

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Whatever the bytes, `parse_segment` and `read_dir` return —
        /// `Ok` with no more records than lines, or a typed error.
        #[test]
        fn arbitrary_bytes_never_panic(seed in 0u64..u64::MAX) {
            let mut rng = Rng(seed);
            let mut segments: Vec<Vec<u8>> = Vec::new();
            for _ in 0..1 + rng.below(2) {
                let mut bytes = Vec::new();
                for _ in 0..rng.below(6) {
                    let piece = match rng.below(4) {
                        0 => arbitrary_line(&mut rng),
                        1 => mutate(&arbitrary_event(&mut rng).to_json(), &mut rng),
                        _ => arbitrary_event(&mut rng).to_json(),
                    };
                    bytes.extend_from_slice(piece.as_bytes());
                    if rng.below(8) != 0 {
                        bytes.push(b'\n');
                    }
                }
                for _ in 0..rng.below(3) {
                    let at = rng.below(bytes.len().max(1));
                    if let Some(b) = bytes.get_mut(at) {
                        *b = rng.next() as u8;
                    }
                }
                segments.push(bytes);
            }
            let dir = tmpdir("hostile");
            std::fs::create_dir_all(&dir).unwrap();
            for (i, bytes) in segments.iter().enumerate() {
                let lines = bytes.split(|&b| b == b'\n').count();
                for tolerate in [false, true] {
                    let mut records = Vec::new();
                    if let Ok(seg) = parse_segment(bytes, "<t>", tolerate, &mut records) {
                        prop_assert_eq!(seg.records, records.len());
                        prop_assert!(seg.records <= lines);
                    }
                }
                std::fs::write(dir.join(segment_file_name(i as u64)), bytes).unwrap();
            }
            if let Ok(scan) = read_dir(&dir) {
                let counted: usize = scan.segments.iter().map(|s| s.records).sum();
                prop_assert_eq!(counted, scan.records.len());
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Sixteen times the input may cost sixteen times the work, not 256
    /// times: no shape of line makes the scan quadratic. (Best of five
    /// timings each; the bound sits halfway between the two in log
    /// terms, so neither host noise nor a cold first pass trips it.)
    #[test]
    fn scanning_is_linear_in_the_input() {
        let header = "{\"v\":1,\"period\":0,\"t_s\":0,\"kind\":\"k\"";
        // One record: `open`, about `n` bytes of `piece`, `close`.
        let one_line = |n: usize, open: &str, piece: &str, close: &str| {
            format!("{header}{open}{}{close}\n", piece.repeat(n / piece.len()))
        };
        let shapes = |n: usize| {
            [
                ("many short records", format!("{header}}}\n").repeat(n / 40)),
                (
                    "one string of escapes",
                    one_line(n, ",\"s\":\"", "\\\\\\u00e9", "\"}"),
                ),
                (
                    "one record of many fields",
                    one_line(n, "", ",\"k\":1", "}"),
                ),
                (
                    "many header duplicates",
                    one_line(n, "", ",\"v\":1,\"kind\":\"x\"", "}"),
                ),
                ("many escaped keys", one_line(n, "", ",\"\\u006b\":1", "}")),
                (
                    "an escaped kind, long line",
                    one_line(n, ",\"kind\":\"\\u006b\",\"s\":\"", "é", "\"}"),
                ),
                ("one torn line", "\u{e9}{\"".repeat(n / 4)),
            ]
        };
        let best_of_five = |text: &str| {
            (0..5)
                .map(|_| {
                    let t0 = std::time::Instant::now();
                    let mut records = Vec::new();
                    let seg = parse_segment(text.as_bytes(), "<t>", true, &mut records).unwrap();
                    assert!(seg.records > 0 || seg.torn_tail.is_some());
                    t0.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min)
        };
        for ((name, small), (_, large)) in shapes(1 << 16).iter().zip(&shapes(1 << 20)) {
            assert!(large.len() >= 15 * small.len(), "{name}");
            let (t_small, t_large) = (best_of_five(small), best_of_five(large));
            assert!(
                t_large < 64.0 * t_small,
                "{name}: {} bytes took {t_small:.6} s, {} bytes took {t_large:.6} s",
                small.len(),
                large.len()
            );
        }
    }
}
