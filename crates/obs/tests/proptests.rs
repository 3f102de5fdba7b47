//! Property tests for the journal reader and crash-recovery replay:
//! truncating a journal at *any* byte offset — the torn-write model of
//! a crash mid-flush — must still parse every complete record cleanly
//! and replay a state identical to folding those records directly.

use capgpu_obs::reader::{parse_jsonl, parse_segment};
use capgpu_obs::replay::{format_targets, parse_targets, ReplayState};
use proptest::prelude::*;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

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

        let (all, none_torn) = parse_jsonl(&full, true).unwrap();
        prop_assert_eq!(all.len(), n);
        prop_assert!(none_torn.is_none());

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

    /// Target vectors survive the comma-joined string encoding exactly,
    /// bit for bit — what lets recovery resume the dead daemon's last
    /// commanded frequencies.
    #[test]
    fn targets_round_trip_bit_exactly(
        targets in prop::collection::vec(0.0f64..3000.0, 0..9),
    ) {
        let text = format_targets(&targets);
        let back = parse_targets(&text).unwrap();
        prop_assert_eq!(back.len(), targets.len());
        for (a, b) in back.iter().zip(targets.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
