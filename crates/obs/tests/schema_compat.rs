//! The journal schema's compatibility rules, end to end: records written
//! into a journal directory are read back with `read_dir`, folded by
//! `ReplayState` and rendered by `report::render`. Unknown keys are
//! ignored, an unknown kind is counted and otherwise inert, the first of
//! duplicate keys wins, and a record of another schema version is
//! refused.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use capgpu_obs::reader::{read_dir, JournalScan};
use capgpu_obs::replay::ReplayState;
use capgpu_obs::report::render;
use capgpu_obs::rotate::segment_file_name;
use capgpu_obs::ObsError;

/// A journal a daemon could have written: identification, a tier step,
/// a set-point step and three periods.
const BASE: [&str; 7] = [
    r#"{"v":1,"period":0,"t_s":0,"kind":"model_gain","device":0,"w_per_mhz":0.35}"#,
    r#"{"v":1,"period":0,"t_s":0,"kind":"identified","points":8,"offset_w":210,"r_squared":0.99}"#,
    r#"{"v":1,"period":1,"t_s":4,"kind":"period","tier":0,"watts":880,"setpoint":900,"stale":0,"delta_f_mhz":-20,"saturated":false,"targets":"1350"}"#,
    r#"{"v":1,"period":2,"t_s":8,"kind":"tier_change","from":0,"to":1,"stale_periods":1,"reason":"stale_meter"}"#,
    r#"{"v":1,"period":2,"t_s":8,"kind":"period","tier":1,"watts":930,"setpoint":900,"stale":1,"delta_f_mhz":-50,"saturated":false,"targets":"1300"}"#,
    r#"{"v":1,"period":3,"t_s":12,"kind":"setpoint_change","from_w":900,"to_w":850}"#,
    r#"{"v":1,"period":3,"t_s":12,"kind":"period","tier":1,"watts":845,"setpoint":850,"stale":0,"delta_f_mhz":10,"saturated":true,"targets":"1310"}"#,
];

/// `lines` as one unsealed segment of a fresh directory, scanned.
fn scan(tag: &str, lines: &[String]) -> Result<JournalScan, ObsError> {
    static SCANS: AtomicUsize = AtomicUsize::new(0);
    let n = SCANS.fetch_add(1, Ordering::Relaxed);
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "capgpu-obs-compat-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(segment_file_name(0)), lines.join("\n") + "\n").unwrap();
    let scan = read_dir(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    scan
}

fn base() -> Vec<String> {
    BASE.iter().map(ToString::to_string).collect()
}

#[test]
fn unknown_keys_are_ignored() {
    let want = scan("plain", &base()).unwrap();
    let extra: Vec<String> = base()
        .iter()
        .map(|l| l.replacen(",\"kind\"", ",\"x_note\":\"later\",\"x_n\":7,\"kind\"", 1))
        .map(|l| l.replace("}", ",\"x_flag\":true}"))
        .collect();
    let got = scan("extra-keys", &extra).unwrap();
    assert_eq!(got.records, want.records);
    assert_eq!(render(&got), render(&want));
}

#[test]
fn an_unknown_kind_is_counted_and_otherwise_inert() {
    let want = render(&scan("plain", &base()).unwrap());
    let mut lines = base();
    lines.insert(
        3,
        r#"{"v":1,"period":2,"t_s":8,"kind":"checkpoint","to":2,"to_w":1,"targets":"1"}"#.into(),
    );
    let got = render(&scan("unknown-kind", &lines).unwrap());
    let mut counted = want.state.clone();
    counted.kind_counts.insert(3, ("checkpoint".into(), 1));
    assert_eq!(got.state, counted);
    assert_eq!((got.verdicts, got.overall), (want.verdicts, want.overall));
    // Only the record counts differ in the text.
    let differ: Vec<(&str, &str)> = got
        .text
        .lines()
        .zip(want.text.lines())
        .filter(|(a, b)| a != b)
        .collect();
    assert_eq!(differ.len(), 1, "{differ:?}");
    assert!(
        differ[0].0.contains("records=8 (checkpoint=1 "),
        "{differ:?}"
    );
}

#[test]
fn of_duplicate_keys_the_first_wins() {
    let mut lines = base();
    lines[5] = r#"{"v":1,"period":3,"t_s":12,"kind":"setpoint_change","from_w":900,"to_w":850,"to_w":700}"#.into();
    lines[6] = lines[6].replace("\"watts\":845", "\"watts\":845,\"watts\":1e6");
    let pm = render(&scan("duplicates", &lines).unwrap());
    assert_eq!(pm.state.cap_w, Some(850.0));
    assert_eq!(pm, render(&scan("plain", &base()).unwrap()));
}

#[test]
fn another_schema_version_is_refused() {
    let mut lines = base();
    lines[4] = lines[4].replace("{\"v\":1,", "{\"v\":2,");
    match scan("v2", &lines) {
        Err(ObsError::SchemaVersion { found, supported }) => assert_eq!((found, supported), (2, 1)),
        other => panic!("a v2 record must be refused: {other:?}"),
    }
    // The same record as the torn tail of a crashed segment is refused
    // too: a version mismatch is never mistaken for a torn write.
    lines.truncate(5);
    assert!(matches!(
        scan("v2-tail", &lines),
        Err(ObsError::SchemaVersion { .. })
    ));
    assert_eq!(
        ReplayState::replay(&scan("plain", &base()).unwrap().records).last_targets_mhz,
        [1310.0]
    );
}
