//! Property tests for the journal writer, reader and crash-recovery
//! replay: truncating a journal at *any* byte offset — the torn-write
//! model of a crash mid-flush — must still parse every complete record
//! cleanly and replay a state identical to folding those records
//! directly, and staging records in batches must write the same bytes
//! as appending them one by one.

use std::path::{Path, PathBuf};

use capgpu_obs::reader::{parse_segment, read_dir};
use capgpu_obs::replay::ReplayState;
use capgpu_obs::rotate::{list_segments, segment_file_name, JournalWriter, RotationConfig};
use proptest::prelude::*;

fn tmpdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("capgpu-obs-proptests-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The segment bytes of `dir`, by index.
fn segment_bytes(dir: &Path) -> Vec<(u64, Vec<u8>)> {
    list_segments(dir)
        .unwrap()
        .into_iter()
        .map(|(index, path)| (index, std::fs::read(path).unwrap()))
        .collect()
}

/// Renders a deterministic journal with `n` records drawn from the
/// daemon's event vocabulary, parameterized by small integers so the
/// proptest shrinker has something meaningful to shrink. Odd salts
/// spell the tier-change reasons with two-, three- and four-byte
/// characters, so that a byte-level cut can land inside one.
fn journal_text(n: usize, salt: u64) -> String {
    let reason = if salt % 2 == 1 {
        "mètre_电源_😀_"
    } else {
        "r"
    };
    let mut out = String::new();
    for i in 0..n as u64 {
        let t_s = 4 * i;
        let line = match (i + salt) % 7 {
            0 => format!(
                "{{\"v\":1,\"period\":{i},\"t_s\":{t_s},\"kind\":\"model_gain\",\"device\":{},\"w_per_mhz\":0.{}5}}",
                (i + salt) % 4,
                (i % 9) + 1
            ),
            1 => format!(
                "{{\"v\":1,\"period\":{i},\"t_s\":{t_s},\"kind\":\"identified\",\"offset_w\":{}}}",
                200 + (salt % 50)
            ),
            2 => format!(
                "{{\"v\":1,\"period\":{i},\"t_s\":{t_s},\"kind\":\"refit\",\"scale\":1.0{},\"offset_w\":21{}.5}}",
                i % 10,
                i % 10
            ),
            3 => format!(
                "{{\"v\":1,\"period\":{i},\"t_s\":{t_s},\"kind\":\"tier_change\",\"from\":{},\"to\":{},\"reason\":\"{reason}{}\"}}",
                i % 3,
                (i + 1) % 3,
                i % 5
            ),
            4 => format!(
                "{{\"v\":1,\"period\":{i},\"t_s\":{t_s},\"kind\":\"quarantine\",\"device\":{},\"on\":{}}}",
                (i + salt) % 4,
                i % 2 == 0
            ),
            5 => format!(
                "{{\"v\":1,\"period\":{i},\"t_s\":{t_s},\"kind\":\"setpoint_change\",\"from_w\":900,\"to_w\":{}}}",
                800 + (i % 7) * 25
            ),
            _ => format!(
                "{{\"v\":1,\"period\":{i},\"t_s\":{t_s},\"kind\":\"period\",\"watts\":8{}0.25,\"setpoint\":900,\"targets\":\"13{}0,1{}25.5\"}}",
                i % 10,
                i % 9,
                4 + (i as usize % 5)
            ),
        };
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// The lines of [`journal_text`] with their record clocks.
fn journal_records(n: usize, salt: u64) -> Vec<(String, f64)> {
    journal_text(n, salt)
        .lines()
        .enumerate()
        .map(|(i, line)| (line.to_string(), 4.0 * i as f64))
        .collect()
}

/// One commit of several records, torn at every byte offset: the reader
/// returns exactly the records written whole plus at most one torn
/// tail, and replays the state of that prefix.
#[test]
fn a_multi_record_commit_torn_at_every_byte_replays_its_prefix() {
    let dir = tmpdir("tear");
    let mut w = JournalWriter::create(&dir, RotationConfig::default()).unwrap();
    for (line, t_s) in journal_records(7, 1) {
        w.stage(&line, t_s).unwrap();
    }
    w.commit().unwrap();
    drop(w);
    let path = dir.join(segment_file_name(0));
    let full = std::fs::read(&path).unwrap();
    let all = read_dir(&dir).unwrap().records;
    assert_eq!(all.len(), 7);
    for cut in 0..=full.len() {
        std::fs::write(&path, &full[..cut]).unwrap();
        let scan = read_dir(&dir).unwrap();
        let complete = full[..cut].iter().filter(|&&b| b == b'\n').count();
        assert_eq!(scan.records, all[..complete], "cut at {cut}");
        let mid_line = cut > 0 && full[cut - 1] != b'\n';
        assert_eq!(scan.torn_tail.is_some(), mid_line, "cut at {cut}");
        assert_eq!(
            ReplayState::replay(&scan.records),
            ReplayState::replay(&all[..complete])
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Staging a record stream and committing it at arbitrary batch
    /// boundaries writes the directory that appending it one record at a
    /// time writes, byte for byte — with segments small and short-lived
    /// enough that seals, age rolls and reaps land inside batches.
    #[test]
    fn staged_batches_write_what_appends_write(
        n in 1usize..60,
        salt in 0u64..1000,
        max_segment_bytes in 100u64..600,
        max_segment_age_s in 8.0f64..80.0,
        retain_segments in 2usize..5,
        batches in prop::collection::vec(1usize..8, 1..20),
    ) {
        let cfg = RotationConfig { max_segment_bytes, max_segment_age_s, retain_segments };
        let records = journal_records(n, salt);
        let (one_by_one, batched) = (tmpdir("append"), tmpdir("staged"));
        let mut a = JournalWriter::create(&one_by_one, cfg).unwrap();
        for (line, t_s) in &records {
            a.append(line, *t_s).unwrap();
        }
        let mut b = JournalWriter::create(&batched, cfg).unwrap();
        let mut sizes = batches.iter().cycle();
        let mut rest = &records[..];
        while !rest.is_empty() {
            let (batch, tail) = rest.split_at((*sizes.next().unwrap()).min(rest.len()));
            for (line, t_s) in batch {
                b.stage(line, *t_s).unwrap();
            }
            b.commit().unwrap();
            rest = tail;
        }
        prop_assert_eq!(a.stats(), b.stats());
        prop_assert!(segment_bytes(&one_by_one) == segment_bytes(&batched));
        a.seal().unwrap();
        b.seal().unwrap();
        prop_assert!(segment_bytes(&one_by_one) == segment_bytes(&batched));
        let _ = std::fs::remove_dir_all(&one_by_one);
        let _ = std::fs::remove_dir_all(&batched);
    }

    /// Truncating the journal at any byte offset still yields a clean
    /// parse of every record that was completely written, plus at most
    /// one torn tail — never an error, never a phantom record.
    #[test]
    fn truncation_at_any_offset_parses_all_complete_records(
        n in 1usize..30,
        salt in 0u64..1000,
        frac in 0.0f64..1.0,
    ) {
        let full = journal_text(n, salt);
        // Truncation is byte-level: the cut may land inside a
        // multi-byte character, as a crash can.
        let cut = (((full.len() as f64) * frac) as usize).min(full.len());
        let truncated = &full.as_bytes()[..cut];

        let mut all = Vec::new();
        let whole = parse_segment(full.as_bytes(), "<memory>", true, &mut all).unwrap();
        prop_assert_eq!(all.len(), n);
        prop_assert!(whole.torn_tail.is_none());

        let mut records = Vec::new();
        let seg = parse_segment(truncated, "<memory>", true, &mut records).unwrap();
        // Complete records are exactly the whole lines before the cut.
        let complete = truncated.iter().filter(|&&b| b == b'\n').count();
        prop_assert_eq!(seg.records, complete);
        prop_assert_eq!(records.len(), complete);
        prop_assert_eq!(&all[..complete], &records[..]);
        // A torn tail exists iff the cut landed mid-line.
        let mid_line = cut > 0 && !truncated.ends_with(b"\n");
        prop_assert_eq!(seg.torn_tail.is_some(), mid_line);

        // Replay over the truncated journal equals replay over the
        // prefix of fully written records — the crash loses at most the
        // record being flushed, never corrupts earlier state.
        let via_truncated = ReplayState::replay(&records);
        let via_prefix = ReplayState::replay(&all[..complete]);
        prop_assert_eq!(via_truncated, via_prefix);
    }
}
