//! The durable L2: one self-describing WLST file per key.
//!
//! Entries are content-addressed — the file name is the FNV-1a hash of the
//! canonical key string — and self-describing in the WLTC tradition: the
//! header carries the full key (kind, ident, seed, scale) plus the spec
//! hash of the scenario that produced the body, so a reader can verify it
//! is holding exactly what it asked for before serving a byte. The body is
//! length-and-checksum framed.
//!
//! Layout (all integers little-endian; strings are `u16 len | bytes`):
//!
//! ```text
//! "WLST" | u8 version
//! | u64 spec_hash | u64 seed
//! | str kind | str ident | str scale
//! | u32 body_len | u64 body_fnv
//! | body bytes (body_len long, then EOF — trailing bytes are corruption)
//! ```
//!
//! Durability contract: [`DiskStore::put`] writes to a temp file in the
//! same directory and atomically renames it over the final name, so a
//! crash mid-write can never leave a half-entry at a served path — readers
//! see the old complete entry or the new complete entry, nothing between.
//! Reads fail with typed [`StoreError`]s on any damage (bad magic, version
//! skew, truncation, checksum mismatch, trailing garbage) and return
//! `Ok(None)` — a miss, not wrong bytes — when the stored key fields don't
//! match the requested key (an FNV collision or a renamed file).

use crate::error::StoreError;
use crate::{fnv64, StoreKey};
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// File magic.
pub(crate) const MAGIC: &[u8; 4] = b"WLST";
/// Current entry format version.
pub(crate) const VERSION: u8 = 1;
/// File extension of persisted entries.
pub(crate) const EXTENSION: &str = "wlst";

/// Sanity cap on a header string (far above any key component).
const MAX_STRING: u16 = 4096;
/// Sanity cap on a body (response documents are megabytes at most).
const MAX_BODY: u32 = 1 << 30;

/// The identity fields a persisted entry carries alongside its body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryMeta {
    /// The key the body was stored under.
    pub key: StoreKey,
    /// Content hash of the scenario spec (or parameter space) the body was
    /// computed from; `0` where no spec applies (validation reports).
    pub spec_hash: u64,
}

/// A directory of WLST entries.
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
    /// Monotonic counter distinguishing concurrent temp files within this
    /// process (the file name also carries the pid for cross-process
    /// uniqueness).
    temp_seq: AtomicU64,
}

impl DiskStore {
    /// Opens (creating if needed) a store directory.
    pub fn open<P: AsRef<Path>>(dir: P) -> Result<DiskStore, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        Ok(DiskStore {
            dir,
            temp_seq: AtomicU64::new(0),
        })
    }

    /// The path an entry for `key` lives at.
    pub fn entry_path(&self, key: &StoreKey) -> PathBuf {
        self.dir.join(format!("{:016x}.{EXTENSION}", key.hash()))
    }

    /// Persists `body` under `key` atomically (write temp, fsync-free
    /// rename — the tier's correctness never depends on durability, only
    /// on atomicity: a torn entry must not exist at the served path).
    pub fn put(&self, key: &StoreKey, spec_hash: u64, body: &str) -> Result<(), StoreError> {
        let mut buf = Vec::with_capacity(64 + body.len());
        buf.extend_from_slice(MAGIC);
        buf.push(VERSION);
        buf.extend_from_slice(&spec_hash.to_le_bytes());
        buf.extend_from_slice(&key.seed.to_le_bytes());
        write_str(&mut buf, &key.kind)?;
        write_str(&mut buf, &key.ident)?;
        write_str(&mut buf, &key.scale)?;
        let body_len = u32::try_from(body.len())
            .ok()
            .filter(|n| *n <= MAX_BODY)
            .ok_or(StoreError::Corrupt("body too large to persist"))?;
        buf.extend_from_slice(&body_len.to_le_bytes());
        buf.extend_from_slice(&fnv64(body.as_bytes()).to_le_bytes());
        buf.extend_from_slice(body.as_bytes());

        let temp = self.dir.join(format!(
            "tmp-{:016x}-{}-{}",
            key.hash(),
            std::process::id(),
            self.temp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        let final_path = self.entry_path(key);
        let result = (|| {
            let mut file = fs::File::create(&temp)?;
            file.write_all(&buf)?;
            drop(file);
            fs::rename(&temp, &final_path)
        })();
        if result.is_err() {
            // Best-effort cleanup; the temp name is unique so a leak is
            // harmless, but don't leave it around on the happy-failure path.
            let _ = fs::remove_file(&temp);
        }
        result.map_err(StoreError::from)
    }

    /// Loads the entry for `key`: its identity header and body, read in one
    /// decode pass (no second file open, so a concurrent overwrite can't
    /// split meta from body). `Ok(None)` means "not stored" — the file is
    /// absent, or present but holds a different key (hash collision). Any
    /// structural damage is a typed error, never a panic and never a
    /// wrong-bytes body.
    pub fn load(&self, key: &StoreKey) -> Result<Option<(EntryMeta, String)>, StoreError> {
        let path = self.entry_path(key);
        let file = match fs::File::open(&path) {
            Ok(file) => file,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let (meta, body) = decode_entry(io::BufReader::new(file))?;
        if &meta.key != key {
            // A different key hashed to the same file name: a miss for this
            // key, not an error (and certainly not this body).
            return Ok(None);
        }
        Ok(Some((meta, body)))
    }
}

/// Appends `u16 len | bytes`.
fn write_str(buf: &mut Vec<u8>, s: &str) -> Result<(), StoreError> {
    let len = u16::try_from(s.len())
        .ok()
        .filter(|n| *n <= MAX_STRING)
        .ok_or(StoreError::Corrupt("key component too long to persist"))?;
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
    Ok(())
}

fn read_exact_or<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), StoreError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            StoreError::Corrupt("truncated entry")
        } else {
            StoreError::Io(e)
        }
    })
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, StoreError> {
    let mut b = [0u8; 8];
    read_exact_or(r, &mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, StoreError> {
    let mut b = [0u8; 4];
    read_exact_or(r, &mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_str<R: Read>(r: &mut R) -> Result<String, StoreError> {
    let mut b = [0u8; 2];
    read_exact_or(r, &mut b)?;
    let len = u16::from_le_bytes(b);
    if len > MAX_STRING {
        return Err(StoreError::Corrupt("absurd string length"));
    }
    let mut bytes = vec![0u8; usize::from(len)];
    read_exact_or(r, &mut bytes)?;
    String::from_utf8(bytes).map_err(|_| StoreError::Corrupt("string is not UTF-8"))
}

/// Decodes the header, returning the meta plus the body framing
/// (`body_len`, `body_fnv`).
fn decode_header<R: Read>(r: &mut R) -> Result<(EntryMeta, u32, u64), StoreError> {
    let mut magic = [0u8; 4];
    read_exact_or(r, &mut magic)?;
    if &magic != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let mut version = [0u8; 1];
    read_exact_or(r, &mut version)?;
    if version[0] != VERSION {
        return Err(StoreError::UnsupportedVersion(version[0]));
    }
    let spec_hash = read_u64(r)?;
    let seed = read_u64(r)?;
    let kind = read_str(r)?;
    let ident = read_str(r)?;
    let scale = read_str(r)?;
    let body_len = read_u32(r)?;
    if body_len > MAX_BODY {
        return Err(StoreError::Corrupt("absurd body length"));
    }
    let body_fnv = read_u64(r)?;
    Ok((
        EntryMeta {
            key: StoreKey {
                kind,
                ident,
                seed,
                scale,
            },
            spec_hash,
        },
        body_len,
        body_fnv,
    ))
}

/// Decodes a whole entry, verifying the body frame (length, checksum, no
/// trailing bytes).
pub fn decode_entry<R: Read>(mut r: R) -> Result<(EntryMeta, String), StoreError> {
    let (meta, body_len, body_fnv) = decode_header(&mut r)?;
    let mut body = vec![0u8; body_len as usize];
    read_exact_or(&mut r, &mut body)?;
    let mut trailing = [0u8; 1];
    match r.read(&mut trailing) {
        Ok(0) => {}
        Ok(_) => return Err(StoreError::Corrupt("trailing bytes after body")),
        Err(e) => return Err(e.into()),
    }
    let found = fnv64(&body);
    if found != body_fnv {
        return Err(StoreError::ChecksumMismatch {
            expected: body_fnv,
            found,
        });
    }
    let body = String::from_utf8(body).map_err(|_| StoreError::Corrupt("body is not UTF-8"))?;
    Ok((meta, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stored body for `key`, as a daemon reads it.
    fn get(store: &DiskStore, key: &StoreKey) -> Result<Option<String>, StoreError> {
        Ok(store.load(key)?.map(|(_, body)| body))
    }

    /// Persisted entries in `dir` (temp files and foreign names ignored).
    fn entries(dir: &Path) -> usize {
        fs::read_dir(dir)
            .expect("list store dir")
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .extension()
                    .is_some_and(|x| x == EXTENSION)
            })
            .count()
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "wavelan-store-{tag}-{}-{:p}",
            std::process::id(),
            &tag
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_get_round_trips() {
        let dir = scratch_dir("roundtrip");
        let store = DiskStore::open(&dir).expect("open");
        let key = StoreKey::run("table2", 1996, "smoke");
        assert_eq!(get(&store, &key).expect("clean miss"), None);
        store.put(&key, 0xFEED, "{\"ok\":true}").expect("persist");
        assert_eq!(
            get(&store, &key).expect("clean hit").as_deref(),
            Some("{\"ok\":true}")
        );
        let meta = store.load(&key).expect("load").expect("present").0;
        assert_eq!(meta.key, key);
        assert_eq!(meta.spec_hash, 0xFEED);
        assert_eq!(entries(&dir), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_sees_persisted_entries() {
        let dir = scratch_dir("reopen");
        let key = StoreKey::sweep(0xABCD, 7, "smoke");
        DiskStore::open(&dir)
            .expect("open")
            .put(&key, 0xABCD, "body")
            .expect("persist");
        // A fresh handle (a restarted daemon) reads the same entry.
        let reopened = DiskStore::open(&dir).expect("reopen");
        assert_eq!(get(&reopened, &key).expect("hit").as_deref(), Some("body"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_mismatch_in_the_file_is_a_miss_not_wrong_bytes() {
        let dir = scratch_dir("collision");
        let store = DiskStore::open(&dir).expect("open");
        let stored = StoreKey::run("tdma", 1, "smoke");
        store.put(&stored, 1, "tdma body").expect("persist");
        // Simulate an FNV collision by renaming the file to another key's
        // address.
        let other = StoreKey::run("harq", 2, "paper");
        fs::rename(store.entry_path(&stored), store.entry_path(&other)).expect("rename");
        assert_eq!(get(&store, &other).expect("typed miss"), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn overwrite_replaces_the_body() {
        let dir = scratch_dir("overwrite");
        let store = DiskStore::open(&dir).expect("open");
        let key = StoreKey::validate(3, 1996, "reduced");
        store.put(&key, 0, "old").expect("persist old");
        store.put(&key, 0, "new").expect("persist new");
        assert_eq!(get(&store, &key).expect("hit").as_deref(), Some("new"));
        assert_eq!(entries(&dir), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn damage_is_typed_never_wrong_bytes() {
        let dir = scratch_dir("damage");
        let store = DiskStore::open(&dir).expect("open");
        let key = StoreKey::run("fec", 1996, "smoke");
        store.put(&key, 9, "the one true body").expect("persist");
        let path = store.entry_path(&key);
        let good = fs::read(&path).expect("read back");

        // Bad magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        fs::write(&path, &bad).expect("write");
        assert!(matches!(get(&store, &key), Err(StoreError::BadMagic)));

        // Version skew.
        let mut bad = good.clone();
        bad[4] = 9;
        fs::write(&path, &bad).expect("write");
        assert!(matches!(
            get(&store, &key),
            Err(StoreError::UnsupportedVersion(9))
        ));

        // Truncation.
        fs::write(&path, &good[..good.len() - 3]).expect("write");
        assert!(matches!(get(&store, &key), Err(StoreError::Corrupt(_))));

        // Body flip → checksum mismatch.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x55;
        fs::write(&path, &bad).expect("write");
        assert!(matches!(
            get(&store, &key),
            Err(StoreError::ChecksumMismatch { .. })
        ));

        // Trailing garbage.
        let mut bad = good.clone();
        bad.push(0);
        fs::write(&path, &bad).expect("write");
        assert!(matches!(
            get(&store, &key),
            Err(StoreError::Corrupt("trailing bytes after body"))
        ));

        let _ = fs::remove_dir_all(&dir);
    }
}
