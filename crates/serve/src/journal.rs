//! The crash-safe append-only journal.
//!
//! Every record is one text line:
//!
//! ```text
//! <crc32:08x> <seq> <kind> <payload>\n
//! ```
//!
//! where the CRC covers `<seq> <kind> <payload>` — so a record is
//! self-validating and a crash mid-append leaves a *torn tail* the
//! loader can recognise and discard. Kinds:
//!
//! * `I` — an **input** record: a canonical jobfile line (`job …`,
//!   `storm …`, `tenant …`, `nodes=…`, `policy=…`, `seed=…`) or a
//!   timed verb (`cancel name=… at=…`). The daemon's entire state is a
//!   deterministic function of the `I`-record sequence; everything
//!   else is derived.
//! * `D` — a **derived** audit record (admit, place, preempt,
//!   checkpoint, complete, requeue…). Recovery re-derives these from
//!   the inputs and cross-checks them against the journaled prefix —
//!   a mismatch is a [`ServeCode::ReplayDivergence`].
//! * `R` — a recovery marker (`R <records>`), appended each time a
//!   daemon rebuilt state from this journal. Observability only:
//!   excluded from the derived-stream cross-check, so kill/restart
//!   cycles stay byte-deterministic.
//! * `F` — the finish marker carrying the CRC of the final report
//!   JSON; a journal ending in `F` belongs to a completed batch.
//!
//! Torn tail vs corruption: an invalid record *at the very end* of the
//! log is the expected crash signature and is silently truncated
//! (reported as a [`ServeCode::TornTail`] warning). An invalid record
//! *followed by valid ones* means the log was damaged in place —
//! recovery refuses with [`ServeCode::JournalCorrupt`].

use std::io::{Read as _, Seek as _, SeekFrom, Write as _};

use crate::codes::{ServeCode, ServeError};

/// CRC-32 (IEEE 802.3, reflected). Hand-rolled because the workspace
/// builds against an empty registry; the table is computed once per
/// call site via `const`.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// Journal record kinds (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Input,
    Derived,
    Recover,
    Finish,
}

impl Kind {
    fn tag(self) -> char {
        match self {
            Kind::Input => 'I',
            Kind::Derived => 'D',
            Kind::Recover => 'R',
            Kind::Finish => 'F',
        }
    }

    fn from_tag(c: &str) -> Option<Kind> {
        match c {
            "I" => Some(Kind::Input),
            "D" => Some(Kind::Derived),
            "R" => Some(Kind::Recover),
            "F" => Some(Kind::Finish),
            _ => None,
        }
    }
}

/// A validated journal record.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub seq: u64,
    pub kind: Kind,
    pub payload: String,
}

/// Render a record as its journal line (trailing newline included).
pub(crate) fn encode(seq: u64, kind: Kind, payload: &str) -> String {
    debug_assert!(!payload.contains('\n'), "payloads are single lines");
    let body = format!("{seq} {} {payload}", kind.tag());
    format!("{:08x} {body}\n", crc32(body.as_bytes()))
}

/// Parse one journal line; `None` when the CRC or shape is invalid.
fn decode(line: &str) -> Option<Record> {
    let (crc_hex, body) = line.split_once(' ')?;
    let crc = u32::from_str_radix(crc_hex, 16).ok()?;
    if crc_hex.len() != 8 || crc != crc32(body.as_bytes()) {
        return None;
    }
    let mut it = body.splitn(3, ' ');
    let seq: u64 = it.next()?.parse().ok()?;
    let kind = Kind::from_tag(it.next()?)?;
    let payload = it.next().unwrap_or("").to_string();
    Some(Record { seq, kind, payload })
}

/// Where journal bytes live. Implementations must make `append`
/// durable in order — the crash model is "a prefix of the appended
/// bytes survives".
pub trait Storage {
    fn append(&mut self, bytes: &[u8]) -> Result<(), ServeError>;
    fn read_all(&mut self) -> Result<Vec<u8>, ServeError>;
    /// Drop everything past `len` (recovery truncates torn tails).
    fn truncate(&mut self, len: u64) -> Result<(), ServeError>;
    /// Bytes stored, without reading them.
    fn len(&mut self) -> Result<u64, ServeError>;
    fn is_empty(&mut self) -> Result<bool, ServeError> {
        Ok(self.len()? == 0)
    }
}

/// Forwarding impl so adapters like [`KillStorage`] can wrap a
/// borrowed `&mut dyn Storage` (the CLI hands its storage in by
/// reference).
impl<S: Storage + ?Sized> Storage for &mut S {
    fn append(&mut self, bytes: &[u8]) -> Result<(), ServeError> {
        (**self).append(bytes)
    }
    fn read_all(&mut self) -> Result<Vec<u8>, ServeError> {
        (**self).read_all()
    }
    fn truncate(&mut self, len: u64) -> Result<(), ServeError> {
        (**self).truncate(len)
    }
    fn len(&mut self) -> Result<u64, ServeError> {
        (**self).len()
    }
}

/// In-memory journal bytes — the unit-test and kill-matrix storage.
#[derive(Debug, Clone, Default)]
pub struct MemStorage {
    pub bytes: Vec<u8>,
}

impl Storage for MemStorage {
    fn append(&mut self, bytes: &[u8]) -> Result<(), ServeError> {
        self.bytes.extend_from_slice(bytes);
        Ok(())
    }
    fn read_all(&mut self) -> Result<Vec<u8>, ServeError> {
        Ok(self.bytes.clone())
    }
    fn truncate(&mut self, len: u64) -> Result<(), ServeError> {
        self.bytes.truncate(len as usize);
        Ok(())
    }
    fn len(&mut self) -> Result<u64, ServeError> {
        Ok(self.bytes.len() as u64)
    }
}

/// A real file on disk (`vpcec --journal PATH`). Appends are flushed
/// per record.
#[derive(Debug)]
pub struct FileStorage {
    file: std::fs::File,
}

impl FileStorage {
    pub fn open(path: &str) -> Result<FileStorage, ServeError> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)
            .map_err(|e| {
                ServeError::new(ServeCode::JournalCorrupt, format!("journal `{path}`: {e}"))
            })?;
        Ok(FileStorage { file })
    }
}

impl Storage for FileStorage {
    fn append(&mut self, bytes: &[u8]) -> Result<(), ServeError> {
        self.file
            .write_all(bytes)
            .and_then(|()| self.file.flush())
            .map_err(|e| ServeError::new(ServeCode::JournalCorrupt, format!("append: {e}")))
    }
    fn read_all(&mut self) -> Result<Vec<u8>, ServeError> {
        let mut buf = Vec::new();
        self.file
            .seek(SeekFrom::Start(0))
            .and_then(|_| self.file.read_to_end(&mut buf))
            .map_err(|e| ServeError::new(ServeCode::JournalCorrupt, format!("read: {e}")))?;
        Ok(buf)
    }
    fn truncate(&mut self, len: u64) -> Result<(), ServeError> {
        self.file
            .set_len(len)
            .map_err(|e| ServeError::new(ServeCode::JournalCorrupt, format!("truncate: {e}")))
    }
    fn len(&mut self) -> Result<u64, ServeError> {
        self.file
            .metadata()
            .map(|m| m.len())
            .map_err(|e| ServeError::new(ServeCode::JournalCorrupt, format!("len: {e}")))
    }
}

/// The seeded murder weapon: wraps a storage and kills the daemon the
/// moment the journal would grow past `kill_at` bytes — writing only
/// the surviving prefix, exactly like a crash mid-append. Fires once.
pub struct KillStorage<S: Storage> {
    pub inner: S,
    kill_at: Option<u64>,
    written: u64,
}

/// The error every kill surfaces as; the session harness catches it by
/// detail string and restarts the daemon.
pub const KILLED: &str = "server killed at seeded journal offset";

impl<S: Storage> KillStorage<S> {
    pub fn new(mut inner: S, kill_at: Option<u64>) -> Result<Self, ServeError> {
        let written = inner.len()?;
        Ok(KillStorage { inner, kill_at, written })
    }

    /// True when a kill already fired (the session uses this to decide
    /// whether a `KILLED` error is expected).
    pub fn exhausted(&self) -> bool {
        self.kill_at.is_none()
    }
}

impl<S: Storage> Storage for KillStorage<S> {
    fn append(&mut self, bytes: &[u8]) -> Result<(), ServeError> {
        if let Some(at) = self.kill_at {
            if self.written + bytes.len() as u64 > at {
                let keep = at.saturating_sub(self.written) as usize;
                self.inner.append(&bytes[..keep])?;
                self.written += keep as u64;
                self.kill_at = None;
                return Err(ServeError::new(ServeCode::TornTail, KILLED));
            }
        }
        self.inner.append(bytes)?;
        self.written += bytes.len() as u64;
        Ok(())
    }
    fn read_all(&mut self) -> Result<Vec<u8>, ServeError> {
        self.inner.read_all()
    }
    fn truncate(&mut self, len: u64) -> Result<(), ServeError> {
        self.written = self.written.min(len);
        self.inner.truncate(len)
    }
    fn len(&mut self) -> Result<u64, ServeError> {
        self.inner.len()
    }
}

/// The journal proper: sequenced, CRC'd records over a [`Storage`].
pub struct Journal<'a> {
    storage: &'a mut dyn Storage,
    next_seq: u64,
}

/// What loading an existing journal found.
#[derive(Debug, Clone, Default)]
pub struct Loaded {
    pub records: Vec<Record>,
    /// Torn-tail bytes discarded (0 on a clean log).
    pub torn_bytes: u64,
}

impl<'a> Journal<'a> {
    /// Load (and repair) the journal: validate every record, truncate
    /// a torn tail, refuse a mid-log corruption.
    pub fn load(storage: &'a mut dyn Storage) -> Result<(Journal<'a>, Loaded), ServeError> {
        let bytes = storage.read_all()?;
        let text = String::from_utf8_lossy(&bytes);
        let mut records = Vec::new();
        let mut good_end = 0u64; // byte offset one past the last valid record
        let mut bad_at: Option<u64> = None;
        let mut offset = 0u64;
        for line in text.split_inclusive('\n') {
            let len = line.len() as u64;
            let complete = line.ends_with('\n');
            match decode(line.trim_end_matches('\n')) {
                Some(rec)
                    if complete
                        && bad_at.is_none()
                        && rec.seq == records.len() as u64 =>
                {
                    records.push(rec);
                    good_end = offset + len;
                }
                // A CRC-valid record in the wrong place — after
                // damage, or breaking the sequence — means the log was
                // edited in place, not torn by a crash. Never truncate
                // through valid records.
                Some(_) if complete => {
                    return Err(ServeError::new(
                        ServeCode::JournalCorrupt,
                        match bad_at {
                            Some(at) => {
                                format!("invalid record at byte {at} followed by valid records")
                            }
                            None => format!("journal sequence broken at byte {offset}"),
                        },
                    ))
                }
                _ => {
                    bad_at.get_or_insert(offset);
                }
            };
            offset += len;
        }
        let total = bytes.len() as u64;
        let torn_bytes = total - good_end;
        if torn_bytes > 0 {
            storage.truncate(good_end)?;
        }
        let next_seq = records.len() as u64;
        Ok((Journal { storage, next_seq }, Loaded { records, torn_bytes }))
    }

    /// Append one record durably. The sequence number is assigned
    /// here; a failed append (kill!) does not advance it.
    pub fn append(&mut self, kind: Kind, payload: &str) -> Result<u64, ServeError> {
        let seq = self.next_seq;
        let line = encode(seq, kind, payload);
        self.storage.append(line.as_bytes())?;
        self.next_seq += 1;
        Ok(seq)
    }

    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn records_round_trip() {
        let line = encode(3, Kind::Input, "job name=a workload=mm ranks=2");
        assert!(line.ends_with('\n'));
        let rec = decode(line.trim_end()).unwrap();
        assert_eq!(rec.seq, 3);
        assert_eq!(rec.kind, Kind::Input);
        assert_eq!(rec.payload, "job name=a workload=mm ranks=2");
        // Any flipped byte invalidates the CRC.
        let mut bad = line.trim_end().to_string();
        let flip = bad.len() - 1;
        bad.replace_range(flip.., "X");
        assert!(decode(&bad).is_none());
    }

    fn journal_with(lines: &[(Kind, &str)]) -> MemStorage {
        let mut s = MemStorage::default();
        {
            let (mut j, _) = Journal::load(&mut s).unwrap();
            for (k, p) in lines {
                j.append(*k, p).unwrap();
            }
        }
        s
    }

    #[test]
    fn torn_tail_is_truncated_and_counted() {
        let mut s = journal_with(&[(Kind::Input, "nodes=4"), (Kind::Input, "seed=1")]);
        let clean_len = s.bytes.len();
        // Simulate a crash mid-append: half a record survives.
        let torn = encode(2, Kind::Derived, "place a t=0");
        s.bytes.extend_from_slice(&torn.as_bytes()[..torn.len() / 2]);
        let (j, loaded) = Journal::load(&mut s).unwrap();
        assert_eq!(loaded.records.len(), 2);
        assert_eq!(loaded.torn_bytes as usize, torn.len() / 2);
        assert_eq!(j.next_seq(), 2);
        assert_eq!(s.bytes.len(), clean_len, "tail truncated away");
    }

    #[test]
    fn mid_log_damage_is_corruption_not_torn_tail() {
        let mut s = journal_with(&[(Kind::Input, "nodes=4"), (Kind::Input, "seed=1")]);
        s.bytes[4] ^= 0xFF; // damage the first record, second stays valid
        let e = Journal::load(&mut s).map(|_| ()).unwrap_err();
        assert_eq!(e.code, ServeCode::JournalCorrupt);
    }

    #[test]
    fn len_agrees_with_read_all() {
        fn agrees(s: &mut dyn Storage, want: u64) {
            assert_eq!(s.len().unwrap(), want);
            assert_eq!(s.read_all().unwrap().len() as u64, want);
        }
        let path = std::env::temp_dir().join(format!("vpce-journal-len-{}", std::process::id()));
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);
        let mut file = FileStorage::open(path).unwrap();
        let mut mem = MemStorage::default();
        let rec = encode(0, Kind::Input, "nodes=4");
        let torn = &rec.as_bytes()[..rec.len() / 2];
        for s in [&mut file as &mut dyn Storage, &mut mem] {
            agrees(s, 0);
            s.append(rec.as_bytes()).unwrap();
            s.append(torn).unwrap();
            agrees(s, (rec.len() + torn.len()) as u64);
            // Recovery truncates the torn tail; a wrapper sees the same.
            let (_, loaded) = Journal::load(s).unwrap();
            assert_eq!(loaded.torn_bytes, torn.len() as u64);
            agrees(s, rec.len() as u64);
            agrees(&mut KillStorage::new(s, None).unwrap(), rec.len() as u64);
        }
        drop(file);
        agrees(&mut FileStorage::open(path).unwrap(), rec.len() as u64);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn kill_storage_tears_exactly_at_the_offset() {
        let clean = journal_with(&[(Kind::Input, "nodes=4"), (Kind::Input, "seed=1")]);
        for kill_at in 0..clean.bytes.len() as u64 {
            let mut s = KillStorage::new(MemStorage::default(), Some(kill_at)).unwrap();
            let mut died = false;
            {
                let (mut j, _) = Journal::load(&mut s).unwrap();
                for p in ["nodes=4", "seed=1"] {
                    if j.append(Kind::Input, p).is_err() {
                        died = true;
                        break;
                    }
                }
            }
            assert!(died, "kill at {kill_at} must fire");
            assert!(s.exhausted());
            assert_eq!(s.inner.bytes.len() as u64, kill_at, "prefix survives exactly");
            assert_eq!(&clean.bytes[..kill_at as usize], &s.inner.bytes[..]);
            // The surviving prefix always loads (possibly with a torn
            // tail) — crash-safety of the format itself.
            let (_, loaded) = Journal::load(&mut s.inner).unwrap();
            assert!(loaded.records.len() <= 2);
        }
    }
}
