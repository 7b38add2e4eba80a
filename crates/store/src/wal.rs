//! The `PANEWAL1` insert-ahead log.
//!
//! Every row pair that arrives through the serving ingest path is
//! appended (and synced) here **before** the in-memory insert is
//! acknowledged — the log *is* the durability story for grown nodes,
//! exactly the log-structured split LogBase describes: an append-only
//! tail over immutable base artifacts, folded in by periodic compaction
//! (a store snapshot).
//!
//! # Format (version 1)
//!
//! All integers little-endian. The file is the 8-byte magic `b"PANEWAL1"`
//! followed by a sequence of self-delimiting records:
//!
//! | offset | size | field | meaning |
//! |--------|------|-------|---------|
//! | 0 | 8 | `payload_len` | payload bytes that follow the checksum (`16 + 16·k/2`) |
//! | 8 | 8 | `checksum` | FNV-1a 64 over the payload bytes |
//! | 16 | 8 | `node_id` | dense id the row pair was acknowledged under |
//! | 24 | 8 | `k2` | per-direction width `k/2` (> 0) |
//! | 32 | 8·k2 | `forward` | the node's `X_f` row |
//! | 32+8·k2 | 8·k2 | `backward` | the node's `X_b` row |
//!
//! # Recovery contract
//!
//! Records are atomic: [`replay`] returns every record of the longest
//! **clean prefix** — it stops at the first torn or corrupt record
//! (truncated header/payload, checksum mismatch, `payload_len`
//! inconsistent with the embedded `k2`) and reports how many trailing
//! bytes it dropped, so the caller can truncate the log back to the
//! clean prefix and keep appending. A file that is not a `PANEWAL1` log
//! at all (bad magic, shorter than the magic) is a structured
//! [`StoreError`] instead — that is a mispointed path, not a torn tail.
//! Nothing in this module panics on file contents, and no declared
//! length is allocated before it is checked against the bytes that
//! actually remain.

use crate::StoreError;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Magic bytes of the insert-ahead log (version 1).
pub const WAL_MAGIC: &[u8; 8] = b"PANEWAL1";

/// Refuse records declaring a `k/2` beyond this (a corrupt length must
/// not drive a giant allocation).
const MAX_K2: u64 = 1 << 20;

/// FNV-1a 64 — the record checksum. Not cryptographic; it detects torn
/// writes and bit rot, which is all a local WAL needs.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One replayed insert: the acknowledged node id and its row pair.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Dense node id the insert was acknowledged under.
    pub node_id: u64,
    /// The node's forward (`X_f`) row.
    pub forward: Vec<f64>,
    /// The node's backward (`X_b`) row.
    pub backward: Vec<f64>,
}

/// Result of scanning a log: the clean-prefix records plus where the
/// prefix ends.
#[derive(Debug)]
pub struct WalReplay {
    /// Records of the longest clean prefix, in append order.
    pub records: Vec<WalRecord>,
    /// Byte length of the clean prefix (magic included) — what the file
    /// should be truncated to before further appends.
    pub valid_len: u64,
    /// Trailing bytes past the clean prefix (0 for a healthy log).
    pub dropped_bytes: u64,
}

fn serialize_payload(node_id: u64, forward: &[f64], backward: &[f64]) -> Vec<u8> {
    let k2 = forward.len();
    let mut payload = Vec::with_capacity(16 + 16 * k2);
    payload.extend_from_slice(&node_id.to_le_bytes());
    payload.extend_from_slice(&(k2 as u64).to_le_bytes());
    for half in [forward, backward] {
        for &v in half {
            payload.extend_from_slice(&v.to_le_bytes());
        }
    }
    payload
}

/// What one [`Wal::append`] did, for the caller's instrumentation: how
/// many bytes the record added and how the wall time split between the
/// buffered write and the `sync_data` barrier (the barrier dominates on
/// real disks — it is the per-insert durability cost).
#[derive(Debug, Clone, Copy)]
pub struct WalAppend {
    /// Record size on disk (header + payload).
    pub bytes: u64,
    /// Time spent in `write_all`.
    pub write: Duration,
    /// Time spent in `sync_data`.
    pub sync: Duration,
}

/// Append handle over a `PANEWAL1` file. Every append is flushed and
/// synced before it returns — an acknowledged insert survives a hard
/// kill of the process.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: File,
    /// Current log length in bytes (magic included); mirrors the file so
    /// status reporting never needs a `metadata` syscall.
    len: u64,
}

impl Wal {
    /// Creates a fresh (empty) log at `path`, truncating anything there.
    pub fn create(path: &Path) -> Result<Self, StoreError> {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.write_all(WAL_MAGIC)?;
        file.sync_data()?;
        Ok(Self {
            path: path.to_path_buf(),
            file,
            len: WAL_MAGIC.len() as u64,
        })
    }

    /// Opens an existing log for appending at `valid_len` (as reported by
    /// [`replay`]), truncating any torn tail past it first.
    pub fn open_at(path: &Path, valid_len: u64) -> Result<Self, StoreError> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        if file.metadata()?.len() > valid_len {
            file.set_len(valid_len)?;
            file.sync_data()?;
        }
        let mut file = file;
        file.seek(SeekFrom::Start(valid_len))?;
        Ok(Self {
            path: path.to_path_buf(),
            file,
            len: valid_len,
        })
    }

    /// Appends one insert record and syncs it to disk. Only after this
    /// returns may the insert be acknowledged. Returns the record size
    /// and the write/sync timing split for instrumentation.
    pub fn append(
        &mut self,
        node_id: u64,
        forward: &[f64],
        backward: &[f64],
    ) -> Result<WalAppend, StoreError> {
        debug_assert_eq!(forward.len(), backward.len());
        let payload = serialize_payload(node_id, forward, backward);
        let mut record = Vec::with_capacity(16 + payload.len());
        record.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        record.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        record.extend_from_slice(&payload);
        let t0 = Instant::now();
        self.file.write_all(&record)?;
        let write = t0.elapsed();
        let t1 = Instant::now();
        self.file.sync_data()?;
        let sync = t1.elapsed();
        self.len += record.len() as u64;
        Ok(WalAppend {
            bytes: record.len() as u64,
            write,
            sync,
        })
    }

    /// Truncates the log back to just the magic (after a snapshot folded
    /// every record into a new base generation).
    pub fn truncate(&mut self) -> Result<(), StoreError> {
        self.file.set_len(WAL_MAGIC.len() as u64)?;
        self.file.seek(SeekFrom::Start(WAL_MAGIC.len() as u64))?;
        self.file.sync_data()?;
        self.len = WAL_MAGIC.len() as u64;
        Ok(())
    }

    /// Current log length in bytes, magic included.
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Scans the log at `path`, returning the clean-prefix records. See the
/// [module docs](self) for the exact torn-tail vs structured-error split.
pub fn replay(path: &Path) -> Result<WalReplay, StoreError> {
    let mut file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut magic = [0u8; 8];
    if file_len < 8 {
        return Err(StoreError::Format(format!(
            "{}: too short to be a PANEWAL1 log ({file_len} bytes)",
            path.display()
        )));
    }
    file.read_exact(&mut magic)?;
    if &magic != WAL_MAGIC {
        return Err(StoreError::Format(format!(
            "{}: bad WAL magic {magic:?} (expected {WAL_MAGIC:?})",
            path.display()
        )));
    }

    let mut records = Vec::new();
    let mut valid_len = 8u64;
    loop {
        let remaining = file_len - valid_len;
        if remaining == 0 {
            break;
        }
        // Header: payload_len + checksum. A partial header is a torn tail.
        if remaining < 16 {
            break;
        }
        let mut header = [0u8; 16];
        file.read_exact(&mut header)?;
        let payload_len = u64::from_le_bytes(header[..8].try_into().unwrap());
        let checksum = u64::from_le_bytes(header[8..].try_into().unwrap());
        // A length the remaining bytes cannot hold — or one implying an
        // absurd k/2 — is corruption; stop before allocating for it.
        if payload_len > remaining - 16 || payload_len > 16 + 16 * MAX_K2 {
            break;
        }
        let mut payload = vec![0u8; payload_len as usize];
        file.read_exact(&mut payload)?;
        if fnv1a(&payload) != checksum {
            break;
        }
        // Checksum-valid payloads still carry their own redundancy: the
        // declared k/2 must account for the payload length exactly.
        if payload_len < 16 {
            break;
        }
        let node_id = u64::from_le_bytes(payload[..8].try_into().unwrap());
        let k2 = u64::from_le_bytes(payload[8..16].try_into().unwrap());
        if k2 == 0 || payload_len != 16 + 16 * k2 {
            break;
        }
        let k2 = k2 as usize;
        let half = |at: usize| -> Vec<f64> {
            (0..k2)
                .map(|i| {
                    f64::from_le_bytes(payload[at + 8 * i..at + 8 * (i + 1)].try_into().unwrap())
                })
                .collect()
        };
        let forward = half(16);
        let backward = half(16 + 8 * k2);
        records.push(WalRecord {
            node_id,
            forward,
            backward,
        });
        valid_len += 16 + payload_len;
    }
    Ok(WalReplay {
        records,
        valid_len,
        dropped_bytes: file_len - valid_len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pane_wal_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn append_replay_roundtrip() {
        let p = tmp("roundtrip.wal");
        let mut wal = Wal::create(&p).unwrap();
        wal.append(10, &[1.0, 2.0], &[3.0, 4.0]).unwrap();
        wal.append(11, &[-0.5, 0.25], &[0.0, 9.0]).unwrap();
        let r = replay(&p).unwrap();
        assert_eq!(r.dropped_bytes, 0);
        assert_eq!(r.records.len(), 2);
        assert_eq!(r.records[0].node_id, 10);
        assert_eq!(r.records[0].forward, vec![1.0, 2.0]);
        assert_eq!(r.records[1].backward, vec![0.0, 9.0]);
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let p = tmp("torn.wal");
        let mut wal = Wal::create(&p).unwrap();
        wal.append(0, &[1.0], &[2.0]).unwrap();
        wal.append(1, &[3.0], &[4.0]).unwrap();
        let full = std::fs::read(&p).unwrap();
        // Cut the second record in half: the first must replay cleanly.
        let cut = full.len() - 10;
        std::fs::write(&p, &full[..cut]).unwrap();
        let r = replay(&p).unwrap();
        assert_eq!(r.records.len(), 1);
        assert!(r.dropped_bytes > 0);
        // Reopening at valid_len truncates the tail and appends cleanly.
        let mut wal = Wal::open_at(&p, r.valid_len).unwrap();
        wal.append(1, &[5.0], &[6.0]).unwrap();
        let r = replay(&p).unwrap();
        assert_eq!(r.records.len(), 2);
        assert_eq!(r.records[1].forward, vec![5.0]);
        assert_eq!(r.dropped_bytes, 0);
    }

    #[test]
    fn checksum_catches_flips() {
        let p = tmp("flip.wal");
        let mut wal = Wal::create(&p).unwrap();
        wal.append(0, &[1.0, 2.0], &[3.0, 4.0]).unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&p, &bytes).unwrap();
        let r = replay(&p).unwrap();
        assert!(r.records.is_empty());
        assert!(r.dropped_bytes > 0);
    }

    #[test]
    fn non_wal_files_are_structured_errors() {
        let p = tmp("notwal.wal");
        std::fs::write(&p, b"PANECOL1junkjunk").unwrap();
        assert!(matches!(replay(&p), Err(StoreError::Format(_))));
        std::fs::write(&p, b"PAN").unwrap();
        assert!(matches!(replay(&p), Err(StoreError::Format(_))));
    }

    #[test]
    fn append_reports_bytes_and_len_tracks_file() {
        let p = tmp("lenbytes.wal");
        let mut wal = Wal::create(&p).unwrap();
        assert_eq!(wal.len_bytes(), 8);
        let a = wal.append(3, &[1.0, 2.0], &[3.0, 4.0]).unwrap();
        // header(16) + payload(16 + 16·k2) with k2 = 2.
        assert_eq!(a.bytes, 16 + 16 + 16 * 2);
        assert_eq!(wal.len_bytes(), 8 + a.bytes);
        assert_eq!(wal.len_bytes(), std::fs::metadata(&p).unwrap().len());
        // Reopen at the replayed prefix: the mirror picks up where the
        // file really is; truncate resets it to the bare magic.
        let r = replay(&p).unwrap();
        let mut wal = Wal::open_at(&p, r.valid_len).unwrap();
        assert_eq!(wal.len_bytes(), r.valid_len);
        wal.truncate().unwrap();
        assert_eq!(wal.len_bytes(), 8);
    }

    #[test]
    fn truncate_resets_to_empty() {
        let p = tmp("trunc.wal");
        let mut wal = Wal::create(&p).unwrap();
        wal.append(0, &[1.0], &[2.0]).unwrap();
        wal.truncate().unwrap();
        let r = replay(&p).unwrap();
        assert!(r.records.is_empty());
        assert_eq!(r.valid_len, 8);
        wal.append(0, &[7.0], &[8.0]).unwrap();
        assert_eq!(replay(&p).unwrap().records.len(), 1);
    }
}
