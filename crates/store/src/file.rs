//! Disk-backed spill files: versioned [`crate::wire`] frames inside a
//! scoped, per-run temporary directory.
//!
//! Lifecycle guarantees (asserted by tests):
//!
//! * every [`SpillHandle`] deletes its file when the last reference drops —
//!   collections that spilled and are no longer live leave nothing behind;
//! * the [`SpillManager`] removes its whole directory on drop, covering the
//!   error path and worker-thread panics (a panicking `std::thread::scope`
//!   worker unwinds into the owner of the context, whose manager still
//!   drops).
//!
//! The read side trusts nothing: frame lengths are validated against both
//! the per-frame cap and the bytes actually left in the file, payloads are
//! checksummed, and any violation surfaces as
//! [`io::ErrorKind::InvalidData`] instead of a panic or an oversized
//! allocation.

use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::wire::{self, DEFAULT_MAX_FRAME, FRAME_SPILL};

/// Monotonic discriminator so two managers created in the same nanosecond
/// (e.g. by parallel tests) never collide on a directory name.
static MANAGER_SEQ: AtomicU64 = AtomicU64::new(0);

/// A scoped spill directory: every spill file of one run lives under it, and
/// the whole directory is removed when the manager drops.
#[derive(Debug)]
pub struct SpillManager {
    dir: PathBuf,
    counter: AtomicU64,
}

impl SpillManager {
    /// Creates a fresh, uniquely named spill directory under `base` (the
    /// system temp directory when `None`).
    pub fn new(base: Option<&Path>) -> io::Result<SpillManager> {
        let base = base
            .map(Path::to_path_buf)
            .unwrap_or_else(std::env::temp_dir);
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let seq = MANAGER_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = base.join(format!(
            "trance-spill-{}-{nanos:x}-{seq}",
            std::process::id()
        ));
        fs::create_dir_all(&dir)?;
        Ok(SpillManager {
            dir,
            counter: AtomicU64::new(0),
        })
    }

    /// The scoped directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Opens a new spill file for writing.
    pub fn create(&self) -> io::Result<SpillFile> {
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        let path = self.dir.join(format!("spill-{n}.bin"));
        let file = File::create(&path)?;
        Ok(SpillFile {
            path: Some(path),
            writer: BufWriter::new(file),
            frames: 0,
            bytes: 0,
        })
    }

    /// Number of spill files currently on disk in this manager's directory
    /// (tests assert this returns 0 once all collections are dropped).
    pub fn live_files(&self) -> io::Result<usize> {
        Ok(fs::read_dir(&self.dir)?.count())
    }
}

impl Drop for SpillManager {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}

/// Write side of one spill file: append [`crate::wire`] frames, then
/// [`SpillFile::finish`] into a [`SpillHandle`].
///
/// An **abandoned** write side (dropped before `finish`, e.g. because the
/// spilling operator hit an error partway through) deletes its partial file
/// immediately, so a failed spill never leaves bytes on disk waiting for the
/// manager's directory teardown.
#[derive(Debug)]
pub struct SpillFile {
    /// `Some` while writing; taken by [`SpillFile::finish`] so the `Drop`
    /// impl only deletes files that were never sealed.
    path: Option<PathBuf>,
    writer: BufWriter<File>,
    frames: u64,
    bytes: u64,
}

impl SpillFile {
    /// Appends one frame (16-byte wire header + checksummed payload).
    pub fn append(&mut self, frame: &[u8]) -> io::Result<()> {
        let written = wire::write_frame(&mut self.writer, FRAME_SPILL, frame)?;
        self.frames += 1;
        self.bytes += written;
        Ok(())
    }

    /// Frames appended so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Bytes written so far (frame headers included).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Flushes and seals the file into a read handle.
    pub fn finish(mut self) -> io::Result<SpillHandle> {
        self.writer.flush()?;
        let path = self
            .path
            .take()
            .ok_or_else(|| io::Error::other("spill file finished twice"))?;
        Ok(SpillHandle {
            path,
            frames: self.frames,
            bytes: self.bytes,
        })
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        if let Some(path) = self.path.take() {
            let _ = fs::remove_file(path);
        }
    }
}

/// A sealed spill file. Owns the on-disk bytes: the file is deleted when the
/// handle drops.
#[derive(Debug)]
pub struct SpillHandle {
    path: PathBuf,
    frames: u64,
    bytes: u64,
}

impl SpillHandle {
    /// Number of frames in the file.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Total file size in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Opens a streaming reader over the frames. The reader validates every
    /// frame against the *actual* on-disk size, so a file truncated behind
    /// our back fails with `InvalidData` instead of a huge allocation.
    pub fn open(&self) -> io::Result<SpillReader> {
        let file = File::open(&self.path)?;
        let on_disk = file.metadata()?.len();
        Ok(SpillReader {
            reader: BufReader::new(file),
            remaining_frames: self.frames,
            remaining_bytes: on_disk,
        })
    }
}

impl Drop for SpillHandle {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Streaming reader over a spill file: one frame at a time, never the whole
/// partition.
#[derive(Debug)]
pub struct SpillReader {
    reader: BufReader<File>,
    remaining_frames: u64,
    remaining_bytes: u64,
}

impl SpillReader {
    /// Reads the next frame, or `None` when the file is exhausted.
    ///
    /// Every frame is validated before its payload is read: magic, version,
    /// a [`DEFAULT_MAX_FRAME`] payload cap, the bytes actually remaining in
    /// the file, and the payload checksum. A corrupt or truncated file
    /// surfaces as [`io::ErrorKind::InvalidData`].
    pub fn next_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        if self.remaining_frames == 0 {
            return Ok(None);
        }
        let frame = wire::read_frame(
            &mut self.reader,
            DEFAULT_MAX_FRAME,
            Some(self.remaining_bytes),
        )?;
        let (header, payload) = frame.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "spill file ended before its recorded frame count",
            )
        })?;
        self.remaining_bytes = self.remaining_bytes.saturating_sub(header.frame_len());
        self.remaining_frames -= 1;
        Ok(Some(payload))
    }

    /// Frames not yet read.
    pub fn remaining(&self) -> u64 {
        self.remaining_frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The single spill file inside a manager's directory (tests corrupt it
    /// in place to exercise the untrusted-input paths).
    fn only_file(manager: &SpillManager) -> PathBuf {
        let mut entries: Vec<_> = fs::read_dir(manager.dir())
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(entries.len(), 1);
        entries.remove(0)
    }

    #[test]
    fn frames_round_trip_and_files_are_scoped() {
        let manager = SpillManager::new(None).unwrap();
        let dir = manager.dir().to_path_buf();
        let mut file = manager.create().unwrap();
        file.append(b"alpha").unwrap();
        file.append(b"").unwrap();
        file.append(b"gamma!").unwrap();
        let handle = file.finish().unwrap();
        assert_eq!(handle.frames(), 3);
        let mut reader = handle.open().unwrap();
        assert_eq!(reader.next_frame().unwrap().as_deref(), Some(&b"alpha"[..]));
        assert_eq!(reader.next_frame().unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(
            reader.next_frame().unwrap().as_deref(),
            Some(&b"gamma!"[..])
        );
        assert_eq!(reader.next_frame().unwrap(), None);
        assert_eq!(manager.live_files().unwrap(), 1);
        drop(handle);
        assert_eq!(
            manager.live_files().unwrap(),
            0,
            "dropping the handle must delete its file"
        );
        drop(manager);
        assert!(
            !dir.exists(),
            "dropping the manager must remove the scoped directory"
        );
    }

    #[test]
    fn abandoned_write_side_deletes_its_partial_file() {
        let manager = SpillManager::new(None).unwrap();
        let mut file = manager.create().unwrap();
        file.append(b"partial").unwrap();
        assert_eq!(manager.live_files().unwrap(), 1);
        // Dropped without finish(): a spill aborted mid-write (an error or
        // a cancellation) must clean up immediately, not at directory
        // teardown.
        drop(file);
        assert_eq!(
            manager.live_files().unwrap(),
            0,
            "abandoning a write side must delete its partial file"
        );
    }

    #[test]
    fn truncated_file_errors_instead_of_over_allocating() {
        let manager = SpillManager::new(None).unwrap();
        let mut file = manager.create().unwrap();
        file.append(&vec![0xAB; 4096]).unwrap();
        let handle = file.finish().unwrap();
        // Truncate the file mid-payload behind the handle's back: the
        // header's length now exceeds the bytes remaining on disk.
        let path = only_file(&manager);
        let f = fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(64).unwrap();
        drop(f);
        let err = handle.open().unwrap().next_frame().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn garbage_prefix_errors_instead_of_panicking() {
        let manager = SpillManager::new(None).unwrap();
        let mut file = manager.create().unwrap();
        file.append(b"real frame").unwrap();
        let handle = file.finish().unwrap();
        // Stomp the header with garbage: a u64-looking prefix of 0xFF… must
        // be rejected at the magic check, not fed to an allocator.
        let path = only_file(&manager);
        let mut bytes = fs::read(&path).unwrap();
        for b in bytes.iter_mut().take(16) {
            *b = 0xFF;
        }
        fs::write(&path, &bytes).unwrap();
        let err = handle.open().unwrap().next_frame().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn flipped_payload_bit_fails_the_checksum() {
        let manager = SpillManager::new(None).unwrap();
        let mut file = manager.create().unwrap();
        file.append(b"checksummed payload").unwrap();
        let handle = file.finish().unwrap();
        let path = only_file(&manager);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let err = handle.open().unwrap().next_frame().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"));
    }
}
