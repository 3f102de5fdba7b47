//! Journal reading: parse JSONL records, verify sealed segments,
//! tolerate a torn tail in each unsealed (active or crashed) segment,
//! and refuse schema versions this reader does not understand.
//!
//! A [`Record`] is the writer's [`Event`], decoded by its own schema
//! ([`Event::parse`]); this module adds where a line came from, and the
//! seal footer that `rotate` writes and recognises.

use std::path::Path;

use capgpu_telemetry::journal::{DecodeError, Event, SCHEMA_VERSION};

use crate::crc::crc32;
use crate::rotate::{list_segments, parse_seal};
use crate::{ObsError, Result};

/// One parsed journal record: the event the writer rendered.
pub type Record = Event;

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
/// [`ObsError::Corrupt`] on malformed JSON or missing header fields,
/// [`ObsError::SchemaVersion`] on a version this reader does not speak.
pub fn parse_record(line: &str, source: &str, lineno: usize) -> Result<Record> {
    Event::parse(line).map_err(|e| decode_error(e, source, lineno))
}

fn decode_error(e: DecodeError, source: &str, lineno: usize) -> ObsError {
    match e {
        DecodeError::Malformed(message) => corrupt_at(source, lineno, &message),
        DecodeError::Version(found) => ObsError::SchemaVersion {
            found,
            supported: u64::from(SCHEMA_VERSION),
        },
    }
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
    // One UTF-8 check for the whole segment: a newline is ASCII, so no
    // line of a valid segment cuts a character. Only a segment that fails
    // it (a tail torn inside a character, or corruption) is checked line
    // by line, which locates the bad line.
    let text = std::str::from_utf8(bytes).unwrap_or_default();
    // `lines()` would hide a missing trailing newline; split manually.
    let mut at = 0;
    let mut lineno = 0usize;
    while at < bytes.len() {
        lineno += 1;
        let rest = &bytes[at..];
        let (len, complete) = match find_newline(rest) {
            Some(i) => (i, true),
            None => (rest.len(), false),
        };
        let raw = &rest[..len];
        let next = at + len + usize::from(complete);
        let is_last = next == bytes.len();
        if seal.is_some() {
            return Err(corrupt(lineno, "records after the seal footer"));
        }
        if !complete && is_last && tolerate_torn_tail {
            torn_tail = Some(String::from_utf8_lossy(raw).into_owned());
            break;
        }
        let line = text
            .get(at..at + len)
            .map_or_else(|| std::str::from_utf8(raw), Ok);
        let error = match line {
            Ok(line) => match parse_seal(line) {
                Some(footer) => {
                    seal = Some(footer.map_err(|m| corrupt(lineno, m))?);
                    at = next;
                    continue;
                }
                // `parse_record` without its `Result`: a record moved
                // into that on its way to `records` is one more copy.
                None => match Event::parse(line) {
                    Ok(record) => {
                        records.push(record);
                        at = next;
                        continue;
                    }
                    Err(e) => decode_error(e, source, lineno),
                },
            },
            Err(e) => corrupt(lineno, &format!("not UTF-8: {e}")),
        };
        match error {
            // A torn final *complete-looking* line (the crash landed
            // mid-flush and the tail bytes happen to include a newline)
            // is not distinguishable; only tolerate parse failures on
            // the very last line of an unsealed segment.
            ObsError::Corrupt { .. } if is_last && tolerate_torn_tail => {
                torn_tail = Some(String::from_utf8_lossy(raw).into_owned());
            }
            e => return Err(e),
        }
        at = next;
    }
    Ok(SegmentScan {
        records: records.len() - before,
        seal,
        torn_tail,
    })
}

/// Index of the first `\n` in `bytes`, eight bytes at a time.
fn find_newline(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    const NEWLINES: u64 = u64::from_le_bytes([b'\n'; 8]);
    let mut words = bytes.chunks_exact(8);
    for (i, w) in (&mut words).enumerate() {
        let x = u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]) ^ NEWLINES;
        // Marks every zero byte of `x`, which is a `\n` of `w`. A borrow
        // can also mark a byte above a true zero, never one below it, so
        // the lowest mark (the earliest byte, read little-endian) is the
        // first newline.
        let zeros = x.wrapping_sub(ONES) & !x & HIGHS;
        if zeros != 0 {
            return Some(8 * i + zeros.trailing_zeros() as usize / 8);
        }
    }
    let done = bytes.len() - words.remainder().len();
    words
        .remainder()
        .iter()
        .position(|&b| b == b'\n')
        .map(|j| done + j)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rotate::{segment_file_name, JournalWriter, RotationConfig};
    use capgpu_telemetry::journal::Body;
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

    /// Parses free-standing JSONL, as one segment.
    fn parse_jsonl(text: &str, tolerate_torn_tail: bool) -> Result<(Vec<Record>, Option<String>)> {
        let mut records = Vec::new();
        let seg = parse_segment(
            text.as_bytes(),
            "<memory>",
            tolerate_torn_tail,
            &mut records,
        )?;
        Ok((records, seg.torn_tail))
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
        assert_eq!((r.period, r.sim_time_s), (7, 28.0));
        assert!(matches!(
            r.body,
            Body::Period { tier: Some(0), watts: Some(w), targets: None, .. } if w == 899.5
        ));
    }

    #[test]
    fn errors_carry_their_source_and_line_and_a_seal_is_spelled_one_way() {
        let err = parse_record(r#"{"v":1,"period":0,"kind":"period"}"#, "seg", 7).unwrap_err();
        assert_eq!(
            err.to_string(),
            "corrupt journal record (seg:7): missing `t_s`"
        );
        // The footer is recognised by the bytes `rotate` writes, so one
        // spelled any other way is no footer, and has no period.
        let err =
            parse_jsonl(r#"{"v":1,"kind":"segment\u005fseal","records":2}"#, false).unwrap_err();
        assert!(err.to_string().contains("missing `period`"), "{err}");
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

        // The line split, where a word-at-a-time newline search can go
        // wrong. Sixteen records, each one byte longer than the last, so
        // that a newline falls at every offset mod 8, each right after a
        // tab (0x09, one bit from 0x0A).
        let mut text = String::new();
        for k in 0..16 {
            text += &format!("{{\"v\":1,\"period\":{k},\"t_s\":0,\"kind\":\"period\"}}");
            text += &"\t".repeat(k);
            text.push('\n');
        }
        let (records, torn) = parse_jsonl(&text, false).unwrap();
        let periods: Vec<u64> = records.iter().map(|r| r.period).collect();
        assert_eq!((periods, torn), ((0..16).collect(), None));
        // Bytes a zero-byte test can mistake for a newline: 0x0B (one
        // bit from it), 0x8A (it with the high bit set), a newline right
        // after each, and 0x0B right after a newline. In a torn final
        // line they are dropped; on a line followed by another, that line
        // is corrupt, and located.
        let next = line(16);
        for (tail, want) in [
            (b"\x0b\x8a\x09\x0b".to_vec(), Ok(16)),
            (
                [&b"\x0b\x8a\x09\x0b\n"[..], next.as_bytes(), b"\n"].concat(),
                Err(17),
            ),
            ([&b"\x8a\n\x0b\n"[..], next.as_bytes()].concat(), Err(17)),
        ] {
            let bytes = [text.as_bytes(), &tail].concat();
            let got = match parse_segment(&bytes, "<t>", true, &mut Vec::new()) {
                Ok(seg) if seg.torn_tail.is_some() => Ok(seg.records),
                Err(ObsError::Corrupt { line, .. }) => Err(line),
                other => panic!("{tail:?}: {other:?}"),
            };
            assert_eq!(got, want, "{tail:?}");
        }
        // No newline at all; nothing but one.
        assert_eq!(
            parse_jsonl(&line(0), true).unwrap(),
            (vec![], Some(line(0)))
        );
        assert_eq!(parse_jsonl(&line(0), false).unwrap().0.len(), 1);
        assert_eq!(
            parse_jsonl("\n", true).unwrap(),
            (vec![], Some(String::new()))
        );
        let err = parse_jsonl("\n", false).unwrap_err();
        assert!(matches!(err, ObsError::Corrupt { line: 1, .. }), "{err}");
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
        assert_eq!(scan.records[1].body.kind(), "note");
        assert_eq!(
            scan.records[2].body,
            Body::Refit {
                scale: 1.0625,
                offset_w: 441.348_230_213_280_5
            }
        );
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
        // And with the character's first byte at every offset mod 8, so
        // that the cut falls just before and just after a word boundary.
        for pad in 0..8 {
            let mut shifted = torn[..torn.len() - 2].to_vec();
            shifted.splice(shifted.len() - 3..shifted.len() - 3, vec![b'x'; pad]);
            shifted.push(0xc3);
            for newline in [false, true] {
                shifted.extend(newline.then_some(b'\n'));
                let seg = parse_segment(&shifted, "<t>", true, &mut Vec::new()).unwrap();
                assert_eq!(
                    (seg.records, seg.torn_tail.is_some()),
                    (1, true),
                    "pad {pad}"
                );
            }
        }
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

    // --- hostile input ---

    /// splitmix64: the proptest shim draws one seed per case, the
    /// generators below draw everything else from this.
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

    /// A record line: one of the earlier build's, or a `period` one.
    fn valid_line(rng: &mut Rng) -> String {
        match rng.below(4) {
            0 => line(rng.next() >> 11),
            i => SEALED_BY_AN_EARLIER_BUILD
                .lines()
                .nth(i - 1)
                .unwrap()
                .to_string(),
        }
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
                        1 => mutate(&valid_line(&mut rng), &mut rng),
                        _ => valid_line(&mut rng),
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
