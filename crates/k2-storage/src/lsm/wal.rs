//! Write-ahead log: crash durability for the LSM memtable.
//!
//! Every acknowledged [`LsmStore::insert`] is first appended here as one
//! CRC-framed record, so a crash between `insert` and the next memtable
//! flush loses nothing. [`LsmStore::insert_batch`] commits in groups: each
//! run of a batch up to the next memtable flush is one `write` of its
//! frames and — under every [`WalSyncPolicy`] but `OnRotate` — one
//! `sync_data`, both before the run reaches the memtable, so an
//! acknowledged batch is on stable storage. The on-disk format is a flat
//! sequence of frames, the same for both paths:
//!
//! ```text
//! ┌────────────┬─────────────┬──────────────────────────────┐
//! │ len u32 LE │ crc32 u32 LE│ payload: key u64 BE | val 16B│
//! └────────────┴─────────────┴──────────────────────────────┘
//! ```
//!
//! `len` is the payload length (24 bytes for a `(key, value)` entry) and
//! the CRC-32 (IEEE) covers the payload only. On replay the log is read
//! frame by frame and **truncated at the first torn or corrupt frame**:
//! a crash mid-append leaves a torn tail, which replay drops — every
//! whole frame before it is recovered.
//!
//! One WAL file (`wal-<seq>.log`) covers one memtable generation. When
//! the memtable flushes to an SSTable the store rotates to a fresh log
//! and retires the old file; the live generation is recorded in the
//! manifest (see [`super::manifest`]).
//!
//! [`LsmStore::insert`]: super::LsmStore::insert
//! [`LsmStore::insert_batch`]: super::LsmStore::insert_batch

use crate::iostats::IoCounters;
use crate::keys::VAL_SIZE;
use crate::StoreResult;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Payload width of one WAL entry: `key u64 BE` + 16-byte value.
pub const WAL_PAYLOAD_SIZE: usize = 8 + VAL_SIZE;
/// Full frame width: 8-byte header (`len`, `crc32`) + payload.
pub const WAL_FRAME_SIZE: usize = 8 + WAL_PAYLOAD_SIZE;

/// Sanity cap on frame payloads: anything larger is treated as a corrupt
/// length field (prevents a flipped length bit from causing huge reads).
const MAX_PAYLOAD: usize = 1 << 20;

const CRC_TABLE: [u32; 256] = crc32_table();

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC-32 (IEEE 802.3 polynomial, the `crc32fast` default) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Wraps `payload` in a `[len | crc32 | payload]` frame.
pub(crate) fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Scans whole, CRC-valid frames at the start of `bytes`, feeding each
/// payload to `visit`. Scanning stops at the first torn frame (fewer
/// bytes than the header promises), corrupt frame (CRC mismatch,
/// absurd length) or `visit` returning `false`; that frame is excluded.
///
/// Returns `(valid_prefix_len, frames_accepted)` — the byte length of
/// the clean prefix and how many frames it holds.
pub(crate) fn scan_frames(bytes: &[u8], mut visit: impl FnMut(&[u8]) -> bool) -> (usize, u64) {
    let mut off = 0usize;
    let mut frames = 0u64;
    while bytes.len() - off >= 8 {
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4")) as usize;
        if len == 0 || len > MAX_PAYLOAD || bytes.len() - off - 8 < len {
            break;
        }
        let want = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().expect("4"));
        let payload = &bytes[off + 8..off + 8 + len];
        if crc32(payload) != want || !visit(payload) {
            break;
        }
        off += 8 + len;
        frames += 1;
    }
    (off, frames)
}

/// Encodes one `(key, value)` entry as a WAL frame.
pub fn encode_frame(key: u64, val: &[u8; VAL_SIZE]) -> [u8; WAL_FRAME_SIZE] {
    let mut payload = [0u8; WAL_PAYLOAD_SIZE];
    payload[0..8].copy_from_slice(&key.to_be_bytes());
    payload[8..].copy_from_slice(val);
    let mut out = [0u8; WAL_FRAME_SIZE];
    out[0..4].copy_from_slice(&(WAL_PAYLOAD_SIZE as u32).to_le_bytes());
    out[4..8].copy_from_slice(&crc32(&payload).to_le_bytes());
    out[8..].copy_from_slice(&payload);
    out
}

/// When the WAL file is `fsync`ed. Appends are always `write(2)`-visible
/// immediately (a crashed *process* loses nothing either way); the policy
/// only decides how much acknowledged data a crashed *machine* may lose.
///
/// A batch run ([`WalWriter::append_run`]) is one append whatever its
/// length: it is synced before it is acknowledged under `EveryAppend` and
/// `Batched`, and left to the rotation under `OnRotate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalSyncPolicy {
    /// `fsync` after every append — zero loss on power failure, slowest.
    EveryAppend,
    /// `fsync` after every batch run, and after every `n` single
    /// appends — bounds power-failure loss to `n - 1` acknowledged single
    /// inserts and no acknowledged batch point.
    Batched(usize),
    /// `fsync` only when the log rotates at a memtable flush.
    OnRotate,
}

impl Default for WalSyncPolicy {
    fn default() -> Self {
        WalSyncPolicy::Batched(64)
    }
}

/// Appender for one WAL generation.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    policy: WalSyncPolicy,
    unsynced: usize,
    io: Arc<IoCounters>,
}

impl WalWriter {
    /// Creates a fresh (truncated) log at `path`.
    pub fn create(
        path: impl AsRef<Path>,
        policy: WalSyncPolicy,
        io: Arc<IoCounters>,
    ) -> StoreResult<Self> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)?;
        Ok(Self {
            file,
            path,
            policy,
            unsynced: 0,
            io,
        })
    }

    /// Reopens an existing log for appending (after replay truncated it
    /// to its last whole frame). A missing file is created empty: a
    /// recovered rotation record may point at a log whose own creation
    /// — or whose retirement's successor record — was lost to the crash.
    pub fn open_append(
        path: impl AsRef<Path>,
        policy: WalSyncPolicy,
        io: Arc<IoCounters>,
    ) -> StoreResult<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().append(true).create(true).open(&path)?;
        Ok(Self {
            file,
            path,
            policy,
            unsynced: 0,
            io,
        })
    }

    /// Appends one entry, honouring the sync policy. The entry is handed
    /// to the OS (unbuffered `write`) before this returns, so a process
    /// crash after acknowledgement cannot lose it.
    pub fn append(&mut self, key: u64, val: &[u8; VAL_SIZE]) -> StoreResult<()> {
        self.file.write_all(&encode_frame(key, val))?;
        self.appended(1, false)
    }

    /// Appends a run of entries as one group commit: their frames are
    /// encoded into one buffer, handed to the OS with one `write_all` and,
    /// unless the policy is `OnRotate`, made durable with one `sync_data`
    /// before this returns.
    pub fn append_run(
        &mut self,
        entries: impl ExactSizeIterator<Item = (u64, [u8; VAL_SIZE])>,
    ) -> StoreResult<()> {
        let n = entries.len();
        let mut frames = Vec::with_capacity(n * WAL_FRAME_SIZE);
        for (key, val) in entries {
            frames.extend_from_slice(&encode_frame(key, &val));
        }
        self.file.write_all(&frames)?;
        self.appended(n, true)
    }

    /// Accounts `n` entries just written and syncs if the policy says so:
    /// after every append under `EveryAppend`, after a run or every
    /// `n`-th single append under `Batched(n)`, never under `OnRotate`.
    fn appended(&mut self, n: usize, run: bool) -> StoreResult<()> {
        self.io.add_wal_appends(n as u64);
        self.unsynced += n;
        let due = match self.policy {
            WalSyncPolicy::EveryAppend => true,
            WalSyncPolicy::Batched(every) => run || self.unsynced >= every.max(1),
            WalSyncPolicy::OnRotate => false,
        };
        if due {
            self.sync()?;
        }
        Ok(())
    }

    /// Forces the log to stable storage.
    pub fn sync(&mut self) -> StoreResult<()> {
        self.file.sync_data()?;
        self.unsynced = 0;
        Ok(())
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Entries appended since the last sync.
    #[cfg(test)]
    pub(crate) fn unsynced(&self) -> usize {
        self.unsynced
    }
}

/// Outcome of [`replay_wal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalReplay {
    /// Whole frames recovered.
    pub frames: u64,
    /// Byte length of the clean prefix the file was truncated to.
    pub valid_len: u64,
    /// Did replay find (and drop) a torn or corrupt tail?
    pub truncated: bool,
}

/// Replays the log at `path`, feeding every whole CRC-valid entry to
/// `visit` in append order, then truncates the file to the clean prefix
/// so subsequent appends continue from the last good frame.
///
/// A missing file replays as empty (a crash can land between manifest
/// rotation and log creation).
pub fn replay_wal(
    path: impl AsRef<Path>,
    mut visit: impl FnMut(u64, [u8; VAL_SIZE]),
) -> StoreResult<WalReplay> {
    let path = path.as_ref();
    let mut file = match OpenOptions::new().read(true).write(true).open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(WalReplay {
                frames: 0,
                valid_len: 0,
                truncated: false,
            })
        }
        Err(e) => return Err(e.into()),
    };
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    let (valid, frames) = scan_frames(&bytes, |payload| {
        if payload.len() != WAL_PAYLOAD_SIZE {
            return false;
        }
        let key = u64::from_be_bytes(payload[0..8].try_into().expect("8"));
        let val: [u8; VAL_SIZE] = payload[8..].try_into().expect("val");
        visit(key, val);
        true
    });
    let truncated = valid < bytes.len();
    if truncated {
        file.set_len(valid as u64)?;
        file.sync_data()?;
    }
    Ok(WalReplay {
        frames,
        valid_len: valid as u64,
        truncated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("k2wal-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        let p = d.join(name);
        let _ = std::fs::remove_file(&p);
        p
    }

    fn io() -> Arc<IoCounters> {
        Arc::new(IoCounters::new())
    }

    #[test]
    fn crc32_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_replay_round_trip() {
        let path = tmp("roundtrip.log");
        let counters = io();
        let mut w = WalWriter::create(&path, WalSyncPolicy::Batched(3), counters.clone()).unwrap();
        for k in 0..10u64 {
            w.append(k, &[k as u8; VAL_SIZE]).unwrap();
        }
        drop(w);
        assert_eq!(counters.snapshot().wal_appends, 10);
        let mut got = Vec::new();
        let replay = replay_wal(&path, |k, v| got.push((k, v))).unwrap();
        assert_eq!(replay.frames, 10);
        assert!(!replay.truncated);
        assert_eq!(got.len(), 10);
        for (i, (k, v)) in got.iter().enumerate() {
            assert_eq!(*k, i as u64);
            assert_eq!(v[0], i as u8);
        }
    }

    #[test]
    fn a_run_is_one_append_synced_unless_on_rotate() {
        let run = || (0..5u32).map(|k| (u64::from(k), [k as u8; VAL_SIZE]));
        let singles: Vec<u8> = run().flat_map(|(k, v)| encode_frame(k, &v)).collect();
        for (policy, unsynced) in [
            (WalSyncPolicy::EveryAppend, 0),
            (WalSyncPolicy::Batched(64), 0),
            (WalSyncPolicy::OnRotate, 5),
        ] {
            let path = tmp("run.log");
            let counters = io();
            let mut w = WalWriter::create(&path, policy, counters.clone()).unwrap();
            w.append_run(run()).unwrap();
            assert_eq!(w.unsynced(), unsynced, "{policy:?}");
            assert_eq!(counters.snapshot().wal_appends, 5);
            drop(w);
            // The same frames single appends write, so replay is unchanged.
            assert_eq!(std::fs::read(&path).unwrap(), singles, "{policy:?}");
            let mut got = Vec::new();
            replay_wal(&path, |k, _| got.push(k)).unwrap();
            assert_eq!(got, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated() {
        let path = tmp("torn.log");
        let mut w = WalWriter::create(&path, WalSyncPolicy::OnRotate, io()).unwrap();
        for k in 0..5u64 {
            w.append(k, &[0; VAL_SIZE]).unwrap();
        }
        drop(w);
        // Tear the last frame in half.
        let full = std::fs::metadata(&path).unwrap().len();
        let torn = full - (WAL_FRAME_SIZE as u64 / 2);
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(torn).unwrap();
        drop(f);
        let mut n = 0;
        let replay = replay_wal(&path, |_, _| n += 1).unwrap();
        assert_eq!(replay.frames, 4);
        assert!(replay.truncated);
        assert_eq!(n, 4);
        // File now ends exactly at the last whole frame.
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            4 * WAL_FRAME_SIZE as u64
        );
        // And appending continues cleanly after truncation.
        let mut w = WalWriter::open_append(&path, WalSyncPolicy::OnRotate, io()).unwrap();
        w.append(99, &[7; VAL_SIZE]).unwrap();
        drop(w);
        let mut got = Vec::new();
        replay_wal(&path, |k, _| got.push(k)).unwrap();
        assert_eq!(got, vec![0, 1, 2, 3, 99]);
    }

    #[test]
    fn bit_flip_truncates_at_corrupt_frame() {
        let path = tmp("flip.log");
        let mut w = WalWriter::create(&path, WalSyncPolicy::EveryAppend, io()).unwrap();
        for k in 0..6u64 {
            w.append(k, &[0; VAL_SIZE]).unwrap();
        }
        drop(w);
        // Flip one payload bit in frame 3 (0-based): everything from that
        // frame on is dropped.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[3 * WAL_FRAME_SIZE + 12] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let mut got = Vec::new();
        let replay = replay_wal(&path, |k, _| got.push(k)).unwrap();
        assert!(replay.truncated);
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn missing_file_replays_empty() {
        let replay = replay_wal(tmp("absent.log"), |_, _| panic!("no frames")).unwrap();
        assert_eq!(replay.frames, 0);
        assert!(!replay.truncated);
    }

    #[test]
    fn frame_scan_rejects_absurd_length() {
        let mut bytes = frame(b"ok");
        // A frame whose length field promises more than the cap.
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        bytes.extend_from_slice(&[0u8; 12]);
        let mut n = 0;
        let (valid, frames) = scan_frames(&bytes, |_| {
            n += 1;
            true
        });
        assert_eq!(frames, 1);
        assert_eq!(valid, 8 + 2);
        assert_eq!(n, 1);
    }
}
