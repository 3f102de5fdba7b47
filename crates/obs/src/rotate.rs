//! Size/age-based journal segment rotation with CRC-sealed footers and
//! a bounded-retention reaper.
//!
//! A journal directory holds segments named `journal.NNNNNN.jsonl`
//! with a strictly monotone, zero-padded index that keeps growing
//! across restarts (the writer scans the directory and continues after
//! the highest index it finds — a restarted daemon never reuses or
//! appends to a possibly-torn crashed segment). A segment rolls when it
//! reaches [`RotationConfig::max_segment_bytes`] or when the *record
//! clock* (the `t_s` field — the sim clock in deterministic runs, wall
//! seconds on live hardware) has advanced
//! [`RotationConfig::max_segment_age_s`] past the segment's first
//! record. Because both triggers are functions of the record stream
//! alone, rotation points are deterministic and golden-safe.
//!
//! On roll the segment is *sealed*: a footer line
//! `{"v":1,"kind":"segment_seal","segment":N,"records":R,"crc32":C}`
//! is appended, where `C` is the CRC-32 of every preceding record byte
//! (newlines included). The reader verifies seals; a segment without a
//! seal is the active one or a crashed one, and its final record is
//! allowed to be torn.
//!
//! Durability contract: records are *staged* in memory and handed to
//! the OS by [`JournalWriter::commit`], all of them in one `write(2)`;
//! a commit that returns `Ok` has delivered every record staged before
//! it. Nothing calls `fsync`. A crash therefore leaves each segment a
//! byte prefix of what was committed to it — at most one torn final
//! record, never a gap — and loses what was staged but not committed.

use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::crc::crc32_update;
use crate::{ObsError, Result};

/// Segment file prefix and suffix: `journal.NNNNNN.jsonl`.
pub const SEGMENT_PREFIX: &str = "journal.";
/// See [`SEGMENT_PREFIX`].
pub const SEGMENT_SUFFIX: &str = ".jsonl";

/// Rotation policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RotationConfig {
    /// Roll once a segment holds at least this many record bytes
    /// (checked after each append, so a segment may exceed it by one
    /// record).
    pub max_segment_bytes: u64,
    /// Roll once the record clock has advanced this many seconds past
    /// the segment's first record. `f64::INFINITY` disables the age
    /// trigger.
    pub max_segment_age_s: f64,
    /// How many segments (sealed + active) the reaper retains; older
    /// ones are deleted at each roll. This bounds journal disk usage at
    /// roughly `retain_segments × max_segment_bytes`.
    pub retain_segments: usize,
}

impl Default for RotationConfig {
    /// 64 KiB segments, a 1-hour age cap, 8 segments retained.
    fn default() -> Self {
        RotationConfig {
            max_segment_bytes: 64 * 1024,
            max_segment_age_s: 3600.0,
            retain_segments: 8,
        }
    }
}

impl RotationConfig {
    /// Validates the policy.
    ///
    /// # Errors
    /// [`ObsError::BadConfig`] with a description.
    pub fn validate(&self) -> Result<()> {
        if self.max_segment_bytes == 0 {
            return Err(ObsError::BadConfig(
                "rotation.max_segment_bytes must be >= 1".into(),
            ));
        }
        // NaN ages must be rejected too, hence the explicit is_nan.
        if self.max_segment_age_s.is_nan() || self.max_segment_age_s <= 0.0 {
            return Err(ObsError::BadConfig(
                "rotation.max_segment_age_s must be > 0".into(),
            ));
        }
        if self.retain_segments < 2 {
            return Err(ObsError::BadConfig(
                "rotation.retain_segments must be >= 2 (the active segment plus at least \
                 one sealed one, or recovery has nothing to replay)"
                    .into(),
            ));
        }
        Ok(())
    }
}

/// How every seal footer starts; the reader knows a footer by it.
const SEAL_HEAD: &str = "{\"v\":1,\"kind\":\"segment_seal\",\"segment\":";
const _: () = assert!(
    capgpu_telemetry::journal::SCHEMA_VERSION == 1,
    "SEAL_HEAD spells it"
);

/// `(records, crc32)` of a seal footer as [`JournalWriter::seal`]
/// writes it; `None` when `line` is not one.
pub(crate) fn parse_seal(line: &str) -> Option<std::result::Result<(u64, u32), &'static str>> {
    let (segment, rest) = line.strip_prefix(SEAL_HEAD)?.split_once(",\"records\":")?;
    let (records, crc) = rest.strip_suffix('}')?.split_once(",\"crc32\":")?;
    Some(
        match (segment.parse::<u64>(), records.parse(), crc.parse::<u64>()) {
            (Ok(_), Ok(records), Ok(crc)) => u32::try_from(crc)
                .map(|crc| (records, crc))
                .map_err(|_| "seal footer crc32 out of range"),
            _ => Err("seal footer fields are not integers"),
        },
    )
}

/// Renders the segment file name for `index`.
pub fn segment_file_name(index: u64) -> String {
    format!("{SEGMENT_PREFIX}{index:06}{SEGMENT_SUFFIX}")
}

/// Parses a segment index out of a file name, if it is one.
fn parse_segment_index(name: &str) -> Option<u64> {
    let body = name
        .strip_prefix(SEGMENT_PREFIX)?
        .strip_suffix(SEGMENT_SUFFIX)?;
    if body.is_empty() || !body.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    body.parse().ok()
}

/// Lists the segment files in `dir`, sorted by index.
pub fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(idx) = entry.file_name().to_str().and_then(parse_segment_index) {
            out.push((idx, entry.path()));
        }
    }
    out.sort_by_key(|(idx, _)| *idx);
    Ok(out)
}

/// Rotating JSONL journal writer.
///
/// Stages pre-rendered record lines (`Event::write_json` output) for
/// the active segment, sealing and rolling per [`RotationConfig`]. Each
/// commit hands every staged record to the OS in one `write`, nothing
/// held back; a crash loses at most what was staged since the last
/// commit and tears at most the final record written, which the reader
/// tolerates. Records staged but not committed when the writer is
/// dropped are lost, as in a crash.
#[derive(Debug)]
pub struct JournalWriter {
    dir: PathBuf,
    cfg: RotationConfig,
    /// Index of the active segment.
    index: u64,
    /// The active segment's file, opened by its first write.
    file: Option<File>,
    seg_bytes: u64,
    seg_records: u64,
    /// Running CRC state over the active segment's record bytes.
    seg_crc: u32,
    seg_first_t_s: Option<f64>,
    /// Total records staged over the writer's lifetime.
    appended: u64,
    /// Segments sealed over the writer's lifetime.
    sealed: u64,
    /// Segments deleted by the reaper over the writer's lifetime.
    reaped: u64,
    /// Bytes staged for the active segment (`line + '\n'` per record,
    /// then its footer when it rolls), written and cleared together.
    staged: Vec<u8>,
}

impl JournalWriter {
    /// Opens a writer on `dir` (created if missing). Any existing
    /// segments are left untouched; writing continues in a *new*
    /// segment numbered after the highest existing index, so a crashed
    /// segment's torn tail is never appended to.
    ///
    /// # Errors
    /// [`ObsError::BadConfig`] on an invalid policy, [`ObsError::Io`]
    /// on filesystem failure.
    pub fn create(dir: impl Into<PathBuf>, cfg: RotationConfig) -> Result<Self> {
        cfg.validate()?;
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let existing = list_segments(&dir)?;
        let index = existing.last().map_or(0, |(idx, _)| idx + 1);
        Ok(JournalWriter {
            dir,
            cfg,
            index,
            file: None,
            seg_bytes: 0,
            seg_records: 0,
            seg_crc: 0xFFFF_FFFF,
            seg_first_t_s: None,
            appended: 0,
            sealed: 0,
            reaped: 0,
            staged: Vec::new(),
        })
    }

    /// Index of the segment the next record lands in.
    pub fn segment_index(&self) -> u64 {
        self.index
    }

    /// `(records appended, segments sealed, segments reaped)` since
    /// creation.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.appended, self.sealed, self.reaped)
    }

    /// Appends one record line (no trailing newline) stamped at record
    /// clock `t_s` and commits it: [`JournalWriter::stage`] then
    /// [`JournalWriter::commit`], one record per `write`.
    ///
    /// # Errors
    /// [`ObsError::Io`] on filesystem failure.
    pub fn append(&mut self, line: &str, t_s: f64) -> Result<()> {
        self.stage(line, t_s)?;
        self.commit()
    }

    /// Stages one record line (no trailing newline) stamped at record
    /// clock `t_s`, rolling the segment afterwards if the policy says
    /// so. The record's CRC, counters and roll decision are all taken
    /// here, and a roll writes the segment's staged records and then its
    /// footer, so where commits fall changes no byte on disk.
    ///
    /// # Errors
    /// [`ObsError::Io`] when a roll's write or the reaper fails.
    pub fn stage(&mut self, line: &str, t_s: f64) -> Result<()> {
        let start = self.staged.len();
        self.staged.extend_from_slice(line.as_bytes());
        self.staged.push(b'\n');
        self.seg_crc = crc32_update(self.seg_crc, &self.staged[start..]);
        self.seg_bytes += (self.staged.len() - start) as u64;
        self.seg_records += 1;
        let t0 = *self.seg_first_t_s.get_or_insert(t_s);
        self.appended += 1;
        if self.seg_bytes >= self.cfg.max_segment_bytes || t_s - t0 >= self.cfg.max_segment_age_s {
            self.seal()?;
        }
        Ok(())
    }

    /// Hands every staged record to the OS in one `write`. A no-op when
    /// nothing is staged.
    ///
    /// # Errors
    /// [`ObsError::Io`] on filesystem failure. The staged records are
    /// then lost and the segment, which may end in a torn record, is
    /// left unsealed: the next record opens a new one.
    pub fn commit(&mut self) -> Result<()> {
        if self.staged.is_empty() {
            return Ok(());
        }
        let written = match self.file.as_mut() {
            Some(file) => file.write_all(&self.staged),
            None => OpenOptions::new()
                .create_new(true)
                .write(true)
                .open(self.dir.join(segment_file_name(self.index)))
                .and_then(|file| self.file.insert(file).write_all(&self.staged)),
        };
        self.staged.clear();
        if let Err(e) = written {
            self.next_segment();
            return Err(e.into());
        }
        Ok(())
    }

    /// Seals the active segment — commits what is staged, followed by
    /// the CRC footer — and advances the segment index; the next record
    /// opens a fresh segment. A no-op when the active segment holds no
    /// records. Call on graceful shutdown — a crash simply leaves the
    /// segment unsealed.
    ///
    /// # Errors
    /// [`ObsError::Io`] on filesystem failure.
    pub fn seal(&mut self) -> Result<()> {
        if self.seg_records == 0 {
            return Ok(());
        }
        let crc = self.seg_crc ^ 0xFFFF_FFFF;
        writeln!(
            self.staged,
            "{SEAL_HEAD}{},\"records\":{},\"crc32\":{crc}}}",
            self.index, self.seg_records
        )?;
        self.commit()?;
        self.next_segment();
        self.sealed += 1;
        self.reap()
    }

    /// Closes the active segment, sealed or not, and resets the
    /// per-segment state for the next one.
    fn next_segment(&mut self) {
        self.file = None;
        self.index += 1;
        self.seg_bytes = 0;
        self.seg_records = 0;
        self.seg_crc = 0xFFFF_FFFF;
        self.seg_first_t_s = None;
    }

    /// Deletes the oldest segments beyond the retention bound. The
    /// active (highest-index) segment always survives.
    fn reap(&mut self) -> Result<()> {
        let segments = list_segments(&self.dir)?;
        if segments.len() <= self.cfg.retain_segments {
            return Ok(());
        }
        let drop_n = segments.len() - self.cfg.retain_segments;
        for (_, path) in &segments[..drop_n] {
            std::fs::remove_file(path)?;
            self.reaped += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "capgpu-obs-rotate-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn record(i: u64) -> String {
        format!(
            "{{\"v\":1,\"period\":{i},\"t_s\":{},\"kind\":\"period\"}}",
            4 * i
        )
    }

    #[test]
    fn names_round_trip() {
        assert_eq!(segment_file_name(7), "journal.000007.jsonl");
        assert_eq!(parse_segment_index("journal.000007.jsonl"), Some(7));
        assert_eq!(
            parse_segment_index("journal.1000000.jsonl"),
            Some(1_000_000)
        );
        assert_eq!(parse_segment_index("journal..jsonl"), None);
        assert_eq!(parse_segment_index("journal.x7.jsonl"), None);
        assert_eq!(parse_segment_index("other.000007.jsonl"), None);
    }

    #[test]
    fn size_trigger_rolls_and_seals() {
        let dir = tmpdir("size");
        let cfg = RotationConfig {
            max_segment_bytes: 120,
            max_segment_age_s: f64::INFINITY,
            retain_segments: 10,
        };
        let mut w = JournalWriter::create(&dir, cfg).unwrap();
        for i in 0..10 {
            w.append(&record(i), 4.0 * i as f64).unwrap();
        }
        w.seal().unwrap();
        let segs = list_segments(&dir).unwrap();
        assert!(
            segs.len() > 2,
            "expected several segments, got {}",
            segs.len()
        );
        // Indices are contiguous from 0.
        for (want, (idx, _)) in segs.iter().enumerate() {
            assert_eq!(*idx, want as u64);
        }
        // Every segment is sealed (we called seal() at the end) and the
        // seal CRC verifies.
        for (_, path) in &segs {
            let text = std::fs::read_to_string(path).unwrap();
            let (body, footer) = text[..text.len() - 1]
                .rsplit_once('\n')
                .map(|(b, f)| (format!("{b}\n"), f.to_string()))
                .unwrap();
            assert!(footer.contains("\"kind\":\"segment_seal\""), "{footer}");
            let crc = crate::crc::crc32(body.as_bytes());
            assert!(footer.contains(&format!("\"crc32\":{crc}")), "{footer}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn age_trigger_rolls_on_the_record_clock() {
        let dir = tmpdir("age");
        let cfg = RotationConfig {
            max_segment_bytes: u64::MAX,
            max_segment_age_s: 10.0,
            retain_segments: 10,
        };
        let mut w = JournalWriter::create(&dir, cfg).unwrap();
        // 4 s cadence: rolls after t_s 0,4,8,12 (age 12 >= 10), etc.
        for i in 0..8 {
            w.append(&record(i), 4.0 * i as f64).unwrap();
        }
        assert!(w.segment_index() >= 2, "age trigger never fired");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_commit_leaves_its_segment_and_writing_moves_on() {
        let dir = tmpdir("fail");
        let mut w = JournalWriter::create(&dir, RotationConfig::default()).unwrap();
        // A directory where segment 0 would go: opening it fails.
        let blocked = dir.join(segment_file_name(0));
        std::fs::create_dir(&blocked).unwrap();
        assert!(w.append(&record(0), 0.0).is_err());
        w.append(&record(1), 4.0).unwrap();
        w.append(&record(2), 8.0).unwrap();
        std::fs::remove_dir(&blocked).unwrap();
        let text = std::fs::read_to_string(dir.join(segment_file_name(1))).unwrap();
        assert_eq!(text, format!("{}\n{}\n", record(1), record(2)));
        // The seal counts only what reached the new segment.
        w.seal().unwrap();
        let scan = crate::reader::read_dir(&dir).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert!(scan.segments[0].sealed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reaper_bounds_retention_and_index_stays_monotone_across_restart() {
        let dir = tmpdir("reap");
        let cfg = RotationConfig {
            max_segment_bytes: 60,
            max_segment_age_s: f64::INFINITY,
            retain_segments: 3,
        };
        let mut w = JournalWriter::create(&dir, cfg).unwrap();
        for i in 0..20 {
            w.append(&record(i), i as f64).unwrap();
        }
        let segs = list_segments(&dir).unwrap();
        assert!(segs.len() <= 3, "reaper kept {} segments", segs.len());
        let top = segs.last().unwrap().0;
        let (_, sealed, reaped) = w.stats();
        assert!(sealed > 3 && reaped > 0);
        drop(w);
        // Restart: the writer continues after the highest index, never
        // appending to a possibly-torn segment.
        let w2 = JournalWriter::create(&dir, cfg).unwrap();
        assert_eq!(w2.segment_index(), top + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
