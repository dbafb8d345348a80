//! The on-disk store: epoch-granular snapshots plus a write-ahead journal,
//! both framed with per-record CRC-32 checksums.
//!
//! Layout of the store directory:
//!
//! ```text
//! snap-0000000042.rps   one frame: the full controller state with 42 epochs applied
//! journal.rpj           appended frames: one record per completed epoch
//! ```
//!
//! A frame is `[len: u32 LE][crc32(payload): u32 LE][payload]`. Recovery
//! ([`Store::recover`]) walks the journal front to back and stops at the
//! first frame that is **short** (a torn write: the process died mid-`write`)
//! or whose checksum fails (tail corruption); the invalid suffix is
//! *truncated* so subsequent appends extend a clean prefix instead of
//! burying live records behind garbage. Snapshots are validated the same way
//! — newest first, falling back to older files — and written via
//! temp-file-and-rename so a crash mid-snapshot never destroys the previous
//! good one.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use crate::crc::crc32;

/// Frame header size: payload length (u32) plus checksum (u32).
const FRAME_HEADER: usize = 8;

/// Upper bound on one frame's payload — a corrupted length prefix past this
/// is treated as an invalid frame, not an allocation request.
const MAX_FRAME: u32 = 1 << 30;

const SNAPSHOT_PREFIX: &str = "snap-";
const SNAPSHOT_SUFFIX: &str = ".rps";
const JOURNAL_FILE: &str = "journal.rpj";

/// Frames `payload` for disk: length, checksum, bytes.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut framed = Vec::with_capacity(FRAME_HEADER + payload.len());
    framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    framed.extend_from_slice(&crc32(payload).to_le_bytes());
    framed.extend_from_slice(payload);
    framed
}

/// Parses the frame at `bytes[offset..]`. Returns the payload and the offset
/// just past the frame, or `None` when the frame is short or fails its
/// checksum — the caller treats everything from `offset` on as lost.
fn parse_frame(bytes: &[u8], offset: usize) -> Option<(&[u8], usize)> {
    let header = bytes.get(offset..offset + FRAME_HEADER)?;
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
    if len > MAX_FRAME {
        return None;
    }
    let crc = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
    let start = offset + FRAME_HEADER;
    let payload = bytes.get(start..start + len as usize)?;
    if crc32(payload) != crc {
        return None;
    }
    Some((payload, start + len as usize))
}

/// One recovered snapshot: the epoch count it covers and its payload.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Number of epochs applied when the snapshot was taken (the first epoch
    /// a resumed run still has to execute).
    pub epoch: u64,
    /// The snapshot payload, checksum-verified.
    pub payload: Vec<u8>,
}

/// What [`Store::recover`] salvaged.
#[derive(Debug, Clone, Default)]
pub struct Recovery {
    /// The newest frame-valid snapshot, if any.
    pub snapshot: Option<Snapshot>,
    /// Every checksum-valid journal record, in append order.
    pub journal: Vec<Vec<u8>>,
    /// Journal bytes discarded as a torn or corrupted suffix.
    pub discarded_journal_bytes: u64,
    /// Snapshot files skipped because their frame was short or corrupt.
    pub corrupt_snapshots: usize,
}

/// The journal opened once for appending ([`Store::journal_appender`]).
/// Every record is synced to disk before its append returns.
#[derive(Debug)]
pub struct JournalAppender {
    file: File,
}

impl JournalAppender {
    /// Appends one framed record and syncs it.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn append(&self, payload: &[u8]) -> io::Result<()> {
        self.append_prefix(payload, usize::MAX)
    }

    /// Appends one record but persists at most `keep` bytes of its frame —
    /// a **simulated torn write**, as if the process died mid-`write`. With
    /// `keep >= frame length` this is a normal append. The chaos crash fault
    /// drives this to prove that recovery discards exactly the torn suffix.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn append_prefix(&self, payload: &[u8], keep: usize) -> io::Result<()> {
        let framed = frame(payload);
        let cut = keep.min(framed.len());
        (&self.file).write_all(&framed[..cut])?;
        self.file.sync_all()
    }
}

/// A snapshot/journal store rooted at one directory.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
}

impl Store {
    /// Opens (creating if needed) the store directory.
    ///
    /// # Errors
    ///
    /// Propagates the directory creation failure.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Store> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Store { dir })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the write-ahead journal.
    pub fn journal_path(&self) -> PathBuf {
        self.dir.join(JOURNAL_FILE)
    }

    fn snapshot_path(&self, epoch: u64) -> PathBuf {
        self.dir
            .join(format!("{SNAPSHOT_PREFIX}{epoch:010}{SNAPSHOT_SUFFIX}"))
    }

    /// Deletes every snapshot and the journal — a fresh run's clean slate.
    ///
    /// # Errors
    ///
    /// Propagates directory-walk and unlink failures.
    pub fn reset(&self) -> io::Result<()> {
        for epoch in self.snapshot_epochs()? {
            fs::remove_file(self.snapshot_path(epoch))?;
        }
        let journal = self.journal_path();
        if journal.exists() {
            fs::remove_file(journal)?;
        }
        Ok(())
    }

    /// Epochs of every snapshot file present, ascending.
    ///
    /// # Errors
    ///
    /// Propagates directory-walk failures.
    pub fn snapshot_epochs(&self) -> io::Result<Vec<u64>> {
        let mut epochs = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(middle) = name
                .strip_prefix(SNAPSHOT_PREFIX)
                .and_then(|rest| rest.strip_suffix(SNAPSHOT_SUFFIX))
            {
                if let Ok(epoch) = middle.parse::<u64>() {
                    epochs.push(epoch);
                }
            }
        }
        epochs.sort_unstable();
        Ok(epochs)
    }

    /// Writes the snapshot for `epoch` atomically (temp file + rename): a
    /// crash mid-write leaves the previous snapshots untouched. The file and
    /// then the directory are synced, so once this returns the snapshot
    /// survives a power loss under its final name.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn write_snapshot(&self, epoch: u64, payload: &[u8]) -> io::Result<()> {
        let tmp = self.dir.join(format!(".{SNAPSHOT_PREFIX}{epoch:010}.tmp"));
        {
            let mut file = File::create(&tmp)?;
            file.write_all(&frame(payload))?;
            file.sync_all()?;
        }
        fs::rename(&tmp, self.snapshot_path(epoch))?;
        self.sync_dir()
    }

    /// Syncs the store directory: a created or renamed file's entry is
    /// durable only once its directory is.
    fn sync_dir(&self) -> io::Result<()> {
        File::open(&self.dir)?.sync_all()
    }

    /// The payload of the snapshot of `epoch`: `None` when the file is
    /// absent or its frame is short, corrupt or followed by stray bytes.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures other than the file being absent.
    pub fn read_snapshot(&self, epoch: u64) -> io::Result<Option<Vec<u8>>> {
        let bytes = match fs::read(self.snapshot_path(epoch)) {
            Ok(bytes) => bytes,
            Err(err) if err.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(err) => return Err(err),
        };
        Ok(match parse_frame(&bytes, 0) {
            Some((payload, end)) if end == bytes.len() => Some(payload.to_vec()),
            _ => None,
        })
    }

    /// Appends one record to the journal.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn append_journal(&self, payload: &[u8]) -> io::Result<()> {
        self.journal_appender()?.append(payload)
    }

    /// Opens the journal (creating it if needed, and then syncing the
    /// directory so that its entry is durable) for a run's appends: one
    /// open handle for many records. Resets and deletions of the journal
    /// file do not follow an open appender, so open it after them.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn journal_appender(&self) -> io::Result<JournalAppender> {
        let path = self.journal_path();
        let created = !path.exists();
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        if created {
            self.sync_dir()?;
        }
        Ok(JournalAppender { file })
    }

    /// Cuts the journal back to its first `records` valid frames (all of
    /// them when there are fewer), so that later appends follow them.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures other than the journal being absent.
    pub fn truncate_journal(&self, records: usize) -> io::Result<()> {
        let path = self.journal_path();
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(err) if err.kind() == io::ErrorKind::NotFound => return Ok(()),
            Err(err) => return Err(err),
        };
        let mut offset = 0;
        for _ in 0..records {
            match parse_frame(&bytes, offset) {
                Some((_, next)) => offset = next,
                None => break,
            }
        }
        if offset < bytes.len() {
            let file = OpenOptions::new().write(true).open(&path)?;
            file.set_len(offset as u64)?;
            file.sync_all()?;
        }
        Ok(())
    }

    /// Total bytes currently in the journal (0 when absent).
    ///
    /// # Errors
    ///
    /// Propagates metadata failures other than the file being absent.
    pub fn journal_len(&self) -> io::Result<u64> {
        match fs::metadata(self.journal_path()) {
            Ok(meta) => Ok(meta.len()),
            Err(err) if err.kind() == io::ErrorKind::NotFound => Ok(0),
            Err(err) => Err(err),
        }
    }

    /// Total bytes across every snapshot file.
    ///
    /// # Errors
    ///
    /// Propagates directory-walk and metadata failures.
    pub fn snapshots_len(&self) -> io::Result<u64> {
        let mut total = 0;
        for epoch in self.snapshot_epochs()? {
            total += fs::metadata(self.snapshot_path(epoch))?.len();
        }
        Ok(total)
    }

    /// Recovers everything salvageable: the newest checksum-valid snapshot
    /// (older ones are tried when the newest is corrupt) plus every valid
    /// journal record. The journal is truncated to its valid prefix, so the
    /// resumed run appends onto clean ground.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures; corruption is **not** an error —
    /// it shows up as discarded bytes / skipped snapshots in the result.
    pub fn recover(&self) -> io::Result<Recovery> {
        let mut recovery = Recovery::default();

        for epoch in self.snapshot_epochs()?.into_iter().rev() {
            match self.read_snapshot(epoch)? {
                Some(payload) => {
                    recovery.snapshot = Some(Snapshot { epoch, payload });
                    break;
                }
                None => recovery.corrupt_snapshots += 1,
            }
        }

        let journal_path = self.journal_path();
        if journal_path.exists() {
            let mut bytes = Vec::new();
            File::open(&journal_path)?.read_to_end(&mut bytes)?;
            let mut offset = 0;
            while let Some((payload, next)) = parse_frame(&bytes, offset) {
                recovery.journal.push(payload.to_vec());
                offset = next;
            }
            if offset < bytes.len() {
                recovery.discarded_journal_bytes = (bytes.len() - offset) as u64;
                OpenOptions::new()
                    .write(true)
                    .open(&journal_path)?
                    .set_len(offset as u64)?;
            }
        }

        Ok(recovery)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A unique store directory per test (no tempfile crate offline).
    fn scratch_store(tag: &str) -> Store {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let unique = COUNTER.fetch_add(1, Ordering::SeqCst);
        let dir = std::env::temp_dir().join(format!(
            "rental-persist-test-{}-{tag}-{unique}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        Store::open(dir).unwrap()
    }

    #[test]
    fn snapshot_and_journal_round_trip() {
        let store = scratch_store("roundtrip");
        store.write_snapshot(3, b"snapshot-three").unwrap();
        store.append_journal(b"record-a").unwrap();
        store.append_journal(b"record-b").unwrap();
        let recovery = store.recover().unwrap();
        let snapshot = recovery.snapshot.unwrap();
        assert_eq!(snapshot.epoch, 3);
        assert_eq!(snapshot.payload, b"snapshot-three");
        assert_eq!(
            recovery.journal,
            vec![b"record-a".to_vec(), b"record-b".to_vec()]
        );
        assert_eq!(recovery.discarded_journal_bytes, 0);
    }

    #[test]
    fn torn_journal_suffixes_are_discarded_and_truncated() {
        let store = scratch_store("torn");
        store.append_journal(b"whole-record").unwrap();
        // A torn second record: only 5 of its frame bytes hit the disk.
        let journal = store.journal_appender().unwrap();
        journal.append_prefix(b"torn-record", 5).unwrap();
        let recovery = store.recover().unwrap();
        assert_eq!(recovery.journal, vec![b"whole-record".to_vec()]);
        assert_eq!(recovery.discarded_journal_bytes, 5);
        // The truncation leaves clean ground: a new append is recoverable.
        store.append_journal(b"after-recovery").unwrap();
        let again = store.recover().unwrap();
        assert_eq!(
            again.journal,
            vec![b"whole-record".to_vec(), b"after-recovery".to_vec()]
        );
        assert_eq!(again.discarded_journal_bytes, 0);
    }

    #[test]
    fn bit_flips_in_the_journal_are_detected_by_checksum() {
        let store = scratch_store("bitflip");
        store.append_journal(b"first").unwrap();
        store.append_journal(b"second").unwrap();
        // Flip one payload bit of the second record.
        let path = store.journal_path();
        let mut bytes = fs::read(&path).unwrap();
        let second_payload_start = FRAME_HEADER + 5 + FRAME_HEADER;
        bytes[second_payload_start] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let recovery = store.recover().unwrap();
        assert_eq!(recovery.journal, vec![b"first".to_vec()]);
        assert!(recovery.discarded_journal_bytes > 0);
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_to_an_older_one() {
        let store = scratch_store("snapfall");
        store.write_snapshot(2, b"old-good").unwrap();
        store.write_snapshot(5, b"new-soon-corrupt").unwrap();
        let path = store.snapshot_path(5);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let recovery = store.recover().unwrap();
        let snapshot = recovery.snapshot.unwrap();
        assert_eq!(snapshot.epoch, 2);
        assert_eq!(snapshot.payload, b"old-good");
        assert_eq!(recovery.corrupt_snapshots, 1);
    }

    #[test]
    fn reset_clears_everything() {
        let store = scratch_store("reset");
        store.write_snapshot(1, b"snap").unwrap();
        store.append_journal(b"rec").unwrap();
        store.reset().unwrap();
        let recovery = store.recover().unwrap();
        assert!(recovery.snapshot.is_none());
        assert!(recovery.journal.is_empty());
        assert_eq!(store.journal_len().unwrap(), 0);
    }

    #[test]
    fn one_appender_writes_many_records_and_truncation_keeps_a_prefix() {
        let store = scratch_store("appender");
        let journal = store.journal_appender().unwrap();
        for record in [&b"zero"[..], b"one", b"two", b"three"] {
            journal.append(record).unwrap();
        }
        drop(journal);
        assert_eq!(store.recover().unwrap().journal.len(), 4);
        store.truncate_journal(2).unwrap();
        let expected = vec![b"zero".to_vec(), b"one".to_vec()];
        assert_eq!(store.recover().unwrap().journal, expected);
        // Appends follow the kept prefix; asking for more records than
        // there are keeps them all.
        store.journal_appender().unwrap().append(b"again").unwrap();
        store.truncate_journal(10).unwrap();
        let journal = store.recover().unwrap().journal;
        assert_eq!(journal.len(), 3);
        assert_eq!(journal[2], b"again");
        store.truncate_journal(0).unwrap();
        assert_eq!(store.journal_len().unwrap(), 0);
    }

    #[test]
    fn empty_store_recovers_to_nothing() {
        let store = scratch_store("empty");
        let recovery = store.recover().unwrap();
        assert!(recovery.snapshot.is_none());
        assert!(recovery.journal.is_empty());
        assert_eq!(recovery.discarded_journal_bytes, 0);
    }
}
