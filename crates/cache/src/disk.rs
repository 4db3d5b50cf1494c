//! The optional on-disk store: an append-only JSONL file of
//! checksummed entries.
//!
//! One line per entry, a flat JSON object written and read by
//! `marion_trace::json`:
//!
//! ```text
//! {"key":"<32 hex digits>","sum":"<16 hex digits>","payload":"..."}
//! ```
//!
//! `sum` is a [`StableHasher`] checksum of the payload string. A line
//! that fails to parse, carries an unparsable key, or whose checksum
//! does not match its payload is *corrupt*: it is counted and skipped
//! at load, never served — the caller simply recompiles and appends a
//! fresh entry. Appends are whole-line writes under a mutex, so
//! concurrent compile workers cannot interleave partial lines.
//! [`DiskStore::rewrite`] compacts the file to the lines a caller
//! keeps, so rejected and overridden lines are not re-read at every
//! start.

use crate::hash::{CacheKey, StableHasher};
use marion_trace::json::{self, ObjWriter};
use marion_trace::Fields;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// What [`DiskStore::open`] found in an existing file.
#[derive(Debug, Default)]
pub struct DiskLoad {
    /// Verified entries, in file order (later duplicates of a key
    /// should win — replay them in order).
    pub entries: Vec<(CacheKey, String)>,
    /// Lines that failed parsing or checksum verification.
    pub corrupt: usize,
}

/// The append-only store.
pub struct DiskStore {
    path: PathBuf,
    file: Mutex<std::fs::File>,
}

/// Checksum of a payload string, rendered into `sum`.
pub fn checksum(payload: &str) -> u64 {
    let mut h = StableHasher::new();
    h.write_str(payload);
    h.finish().0[0]
}

impl DiskStore {
    /// Opens (creating if absent) the store at `path` and verifies
    /// every existing entry.
    ///
    /// # Errors
    ///
    /// I/O failures opening or reading the file. Corrupt *entries* are
    /// not errors; they are reported in [`DiskLoad::corrupt`].
    pub fn open(path: impl AsRef<Path>) -> io::Result<(DiskStore, DiskLoad)> {
        let path = path.as_ref().to_path_buf();
        let mut load = DiskLoad::default();
        if path.exists() {
            let text = std::fs::read_to_string(&path)?;
            for line in text.lines() {
                if line.trim().is_empty() {
                    continue;
                }
                match parse_entry(line) {
                    Some(entry) => load.entries.push(entry),
                    None => load.corrupt += 1,
                }
            }
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        Ok((
            DiskStore {
                path,
                file: Mutex::new(file),
            },
            load,
        ))
    }

    /// The store's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one checksummed entry and flushes it.
    ///
    /// # Errors
    ///
    /// I/O failures writing the line.
    pub fn append(&self, key: CacheKey, payload: &str) -> io::Result<()> {
        let mut file = self.file.lock().expect("no writer panics mid-append");
        file.write_all(line(key, payload).as_bytes())?;
        file.flush()
    }

    /// Replaces the file's contents with `entries`, in order: they are
    /// written to a temporary file in the same directory, which is then
    /// renamed over the store, so a reader sees the old file or the
    /// new one, never a mix. Later appends go to the new file.
    ///
    /// # Errors
    ///
    /// I/O failures writing or renaming the temporary file; the store
    /// is then left as it was.
    pub fn rewrite<'e>(
        &self,
        entries: impl IntoIterator<Item = (CacheKey, &'e str)>,
    ) -> io::Result<()> {
        let text: String = entries
            .into_iter()
            .map(|(key, payload)| line(key, payload))
            .collect();
        let mut tmp_name = self.path.file_name().unwrap_or_default().to_os_string();
        tmp_name.push(".tmp");
        let tmp = self.path.with_file_name(tmp_name);
        let mut file = self.file.lock().expect("no writer panics mid-append");
        match replace(&tmp, &self.path, &text) {
            Ok(new) => {
                *file = new;
                Ok(())
            }
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }
}

/// Writes `text` to a new file at `tmp`, syncs it so that a crash
/// after the rename cannot leave an empty store, and renames it over
/// `path`. Returns it, open for appends.
fn replace(tmp: &Path, path: &Path, text: &str) -> io::Result<std::fs::File> {
    let _ = std::fs::remove_file(tmp);
    let mut file = std::fs::OpenOptions::new()
        .create_new(true)
        .append(true)
        .open(tmp)?;
    file.write_all(text.as_bytes())?;
    file.sync_all()?;
    std::fs::rename(tmp, path)?;
    Ok(file)
}

/// One entry's line, newline included.
fn line(key: CacheKey, payload: &str) -> String {
    let mut obj = ObjWriter::new();
    obj.str("key", &key.to_hex());
    obj.str("sum", &format!("{:016x}", checksum(payload)));
    obj.str("payload", payload);
    let mut line = obj.finish();
    line.push('\n');
    line
}

fn parse_entry(line: &str) -> Option<(CacheKey, String)> {
    let fields = json::parse_flat(line).ok()?;
    let key = CacheKey::from_hex(fields.str("key")?)?;
    let sum = u64::from_str_radix(fields.str("sum")?, 16).ok()?;
    let payload = fields.str("payload")?;
    if checksum(payload) != sum {
        return None;
    }
    Some((key, payload.to_string()))
}
