//! Append-only manifest: the durable record of LSM structure changes.
//!
//! The `MANIFEST` file starts with an 8-byte magic and is then a log of
//! CRC-framed [`ManifestRecord`]s (same `[len | crc32 | payload]` frame
//! as the WAL). The store appends one record per structural event —
//! never rewriting history — and `fsync`s after every append:
//!
//! * [`ManifestRecord::Flush`] — SSTable `sst-<seq>.k2ss` was written
//!   and is now live,
//! * [`ManifestRecord::Compact`] — the `inputs` tables were merged into
//!   `output`; the inputs are dead,
//! * [`ManifestRecord::WalRotate`] — `wal-<seq>.log` is now the live
//!   WAL (seq `0` means "no live WAL").
//!
//! Recovery folds the record sequence into the live table set and live
//! WAL generation. Because SSTable/WAL files are written and `fsync`ed
//! *before* the record referencing them is appended, any file not
//! reachable from the fold is an orphan from a crashed flush/compaction
//! and can be ignored. A torn or corrupt record tail (crash mid-append)
//! is dropped by truncating to the last whole frame — exactly the WAL's
//! recovery rule.
//!
//! The file itself is created atomically: the magic is written to
//! `MANIFEST.tmp`, `fsync`ed, renamed over `MANIFEST`, and the directory
//! is `fsync`ed so the rename survives a crash.

use super::wal::{frame, scan_frames};
use crate::{StoreError, StoreResult};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Manifest file name inside a store directory.
pub const MANIFEST_FILE: &str = "MANIFEST";
const MANIFEST_MAGIC: &[u8; 8] = b"K2LSMF2\n";

const TAG_FLUSH: u8 = 1;
const TAG_COMPACT: u8 = 2;
const TAG_WAL_ROTATE: u8 = 3;

/// One structural event in the life of an [`LsmStore`].
///
/// [`LsmStore`]: super::LsmStore
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestRecord {
    /// `sst-<seq>.k2ss` was flushed from the memtable and is live.
    Flush {
        /// Sequence number of the new SSTable.
        seq: u64,
    },
    /// The `inputs` SSTables were compacted into `output`.
    Compact {
        /// Sequence numbers of the merged (now dead) tables.
        inputs: Vec<u64>,
        /// Sequence number of the merged run.
        output: u64,
    },
    /// `wal-<seq>.log` is now the live WAL; prior generations are
    /// retired. `seq == 0` records that no WAL is live (a store that
    /// flushed with the WAL disabled).
    WalRotate {
        /// Sequence number of the live WAL generation (0 = none).
        seq: u64,
    },
}

impl ManifestRecord {
    fn encode(&self) -> Vec<u8> {
        match self {
            ManifestRecord::Flush { seq } => {
                let mut out = vec![TAG_FLUSH];
                out.extend_from_slice(&seq.to_le_bytes());
                out
            }
            ManifestRecord::Compact { inputs, output } => {
                let mut out = vec![TAG_COMPACT];
                out.extend_from_slice(&output.to_le_bytes());
                out.extend_from_slice(&(inputs.len() as u32).to_le_bytes());
                for seq in inputs {
                    out.extend_from_slice(&seq.to_le_bytes());
                }
                out
            }
            ManifestRecord::WalRotate { seq } => {
                let mut out = vec![TAG_WAL_ROTATE];
                out.extend_from_slice(&seq.to_le_bytes());
                out
            }
        }
    }

    fn decode(payload: &[u8]) -> Option<Self> {
        let (&tag, rest) = payload.split_first()?;
        let u64_at = |b: &[u8], i: usize| -> Option<u64> {
            Some(u64::from_le_bytes(b.get(i..i + 8)?.try_into().ok()?))
        };
        match tag {
            TAG_FLUSH if rest.len() == 8 => Some(ManifestRecord::Flush {
                seq: u64_at(rest, 0)?,
            }),
            TAG_WAL_ROTATE if rest.len() == 8 => Some(ManifestRecord::WalRotate {
                seq: u64_at(rest, 0)?,
            }),
            TAG_COMPACT if rest.len() >= 12 => {
                let output = u64_at(rest, 0)?;
                let n = u32::from_le_bytes(rest.get(8..12)?.try_into().ok()?) as usize;
                if rest.len() != 12 + n * 8 {
                    return None;
                }
                let inputs = (0..n)
                    .map(|i| u64_at(rest, 12 + i * 8))
                    .collect::<Option<Vec<u64>>>()?;
                Some(ManifestRecord::Compact { inputs, output })
            }
            _ => None,
        }
    }
}

/// Handle to a store's open manifest log.
#[derive(Debug)]
pub struct Manifest {
    file: File,
}

impl Manifest {
    /// Creates a fresh manifest in `dir`, atomically replacing any
    /// previous one (tmp file + rename + directory fsync).
    pub fn create(dir: &Path) -> StoreResult<Self> {
        let path = dir.join(MANIFEST_FILE);
        let tmp = dir.join("MANIFEST.tmp");
        let mut file = File::create(&tmp)?;
        file.write_all(MANIFEST_MAGIC)?;
        file.sync_all()?;
        fs::rename(&tmp, &path)?;
        sync_dir(dir)?;
        Ok(Self { file })
    }

    /// Opens the manifest in `dir` and folds its log: returns the handle
    /// (positioned for appends) plus every whole valid record in order.
    /// A torn/corrupt tail is dropped and the file truncated to the last
    /// whole record.
    pub fn open(dir: &Path) -> StoreResult<(Self, Vec<ManifestRecord>)> {
        let path = dir.join(MANIFEST_FILE);
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        if bytes.len() < MANIFEST_MAGIC.len() || &bytes[..MANIFEST_MAGIC.len()] != MANIFEST_MAGIC {
            return Err(StoreError::Corrupt("bad manifest header".into()));
        }
        let mut records = Vec::new();
        let (valid, _) =
            scan_frames(
                &bytes[MANIFEST_MAGIC.len()..],
                |payload| match ManifestRecord::decode(payload) {
                    Some(rec) => {
                        records.push(rec);
                        true
                    }
                    None => false,
                },
            );
        let clean = (MANIFEST_MAGIC.len() + valid) as u64;
        if clean < bytes.len() as u64 {
            file.set_len(clean)?;
            file.sync_data()?;
            // read_to_end left the cursor at the old EOF; park it at the
            // clean prefix so the next append doesn't leave a zero gap.
            file.seek(SeekFrom::Start(clean))?;
        }
        Ok((Self { file }, records))
    }

    /// Appends one record and `fsync`s it — the record is the commit
    /// point of the structural change it describes.
    pub fn append(&mut self, rec: &ManifestRecord) -> StoreResult<()> {
        self.file.write_all(&frame(&rec.encode()))?;
        self.file.sync_data()?;
        Ok(())
    }
}

/// `fsync` on a directory, making renames/creations inside it durable.
pub(crate) fn sync_dir(dir: &Path) -> StoreResult<()> {
    File::open(dir)?.sync_all()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("k2manifest-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample_records() -> Vec<ManifestRecord> {
        vec![
            ManifestRecord::WalRotate { seq: 1 },
            ManifestRecord::Flush { seq: 2 },
            ManifestRecord::WalRotate { seq: 3 },
            ManifestRecord::Compact {
                inputs: vec![2, 4],
                output: 5,
            },
            ManifestRecord::WalRotate { seq: 0 },
        ]
    }

    #[test]
    fn append_open_round_trip() {
        let dir = tmpdir("roundtrip");
        let mut m = Manifest::create(&dir).unwrap();
        for rec in sample_records() {
            m.append(&rec).unwrap();
        }
        drop(m);
        let (_, got) = Manifest::open(&dir).unwrap();
        assert_eq!(got, sample_records());
    }

    #[test]
    fn corrupt_tail_is_dropped() {
        let dir = tmpdir("tail");
        let mut m = Manifest::create(&dir).unwrap();
        for rec in sample_records() {
            m.append(&rec).unwrap();
        }
        drop(m);
        // Flip a bit inside the last record's payload.
        let path = dir.join(MANIFEST_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 3] ^= 0x10;
        fs::write(&path, &bytes).unwrap();
        let (_, got) = Manifest::open(&dir).unwrap();
        assert_eq!(got, sample_records()[..4]);
        // The truncation is persistent: reopening sees the same prefix.
        let (_, again) = Manifest::open(&dir).unwrap();
        assert_eq!(again, sample_records()[..4]);
    }

    #[test]
    fn torn_tail_is_dropped() {
        let dir = tmpdir("torn");
        let mut m = Manifest::create(&dir).unwrap();
        for rec in sample_records() {
            m.append(&rec).unwrap();
        }
        drop(m);
        let path = dir.join(MANIFEST_FILE);
        let len = fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);
        let (_, got) = Manifest::open(&dir).unwrap();
        assert_eq!(got, sample_records()[..4]);
    }

    #[test]
    fn appends_continue_after_reopen() {
        let dir = tmpdir("reopen");
        let mut m = Manifest::create(&dir).unwrap();
        m.append(&ManifestRecord::Flush { seq: 1 }).unwrap();
        drop(m);
        let (mut m, _) = Manifest::open(&dir).unwrap();
        m.append(&ManifestRecord::Flush { seq: 2 }).unwrap();
        drop(m);
        let (_, got) = Manifest::open(&dir).unwrap();
        assert_eq!(
            got,
            vec![
                ManifestRecord::Flush { seq: 1 },
                ManifestRecord::Flush { seq: 2 }
            ]
        );
    }

    #[test]
    fn bad_header_rejected() {
        let dir = tmpdir("badheader");
        fs::write(dir.join(MANIFEST_FILE), b"WRONG\n").unwrap();
        assert!(matches!(Manifest::open(&dir), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn create_is_atomic_replacement() {
        let dir = tmpdir("atomic");
        fs::write(dir.join(MANIFEST_FILE), b"old garbage").unwrap();
        let _ = Manifest::create(&dir).unwrap();
        let (_, got) = Manifest::open(&dir).unwrap();
        assert!(got.is_empty());
        assert!(!dir.join("MANIFEST.tmp").exists());
    }
}
