//! Versioned, checksummed snapshot container.
//!
//! On-disk layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"GMCK"
//! 4       4     format version (currently 1)
//! 8       4     superstep the snapshot was taken at
//! 12      4     number of vertices
//! 16      4     section count S
//!         ---   S sections, each:
//!                 1       name length (bytes)
//!                 n       section name (ascii)
//!                 8       payload length P
//!                 P       payload bytes
//! end-4   4     CRC-32 (IEEE) over every preceding byte
//! ```
//!
//! The CRC covers the whole file, so any torn write, flipped byte, or
//! truncation is detected on read. Files are written to a `.tmp` sibling
//! and atomically renamed into place, so a crash mid-write never leaves
//! a file that passes validation.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::ops::Range;
use std::path::Path;

use crate::codec::ByteReader;
use crate::crc::{crc32, Crc32};
use crate::error::CkptError;

pub const MAGIC: &[u8; 4] = b"GMCK";
pub const FORMAT_VERSION: u32 = 1;

/// Accumulates named sections and encodes/writes the container.
#[derive(Debug)]
pub struct SnapshotBuilder {
    superstep: u32,
    num_nodes: u32,
    /// Each section's payload is its parts back to back.
    sections: Vec<(String, Vec<Vec<u8>>)>,
}

impl SnapshotBuilder {
    pub fn new(superstep: u32, num_nodes: u32) -> Self {
        SnapshotBuilder {
            superstep,
            num_nodes,
            sections: Vec::new(),
        }
    }

    pub fn section(self, name: &str, payload: Vec<u8>) -> Self {
        self.section_parts(name, vec![payload])
    }

    /// Adds a section whose payload is `parts` back to back, such as the
    /// workers' ranges of a vertex-indexed section, without joining them:
    /// the bytes are those of one section holding the concatenation.
    pub fn section_parts(mut self, name: &str, parts: Vec<Vec<u8>>) -> Self {
        debug_assert!(name.len() <= u8::MAX as usize, "section name too long");
        self.sections.push((name.to_string(), parts));
        self
    }

    /// The encoded size, checksum included.
    fn encoded_len(&self) -> usize {
        let sections: usize = self
            .sections
            .iter()
            .map(|(n, parts)| 9 + n.len() + parts.iter().map(Vec::len).sum::<usize>())
            .sum();
        20 + sections + 4
    }

    /// Serialize the container, including the trailing checksum.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.write_to(&mut out)
            .expect("writing into a Vec does not fail");
        out
    }

    /// Streams the encoding into `out`, checksumming it on the way, so
    /// writing a snapshot never holds a second copy of its sections.
    fn write_to<W: Write>(&self, out: &mut W) -> std::io::Result<()> {
        let mut crc = Crc32::new();
        let mut put = |out: &mut W, bytes: &[u8]| {
            crc = crc.update(bytes);
            out.write_all(bytes)
        };
        put(out, MAGIC)?;
        put(out, &FORMAT_VERSION.to_le_bytes())?;
        put(out, &self.superstep.to_le_bytes())?;
        put(out, &self.num_nodes.to_le_bytes())?;
        put(out, &(self.sections.len() as u32).to_le_bytes())?;
        for (name, parts) in &self.sections {
            let len: usize = parts.iter().map(Vec::len).sum();
            put(out, &[name.len() as u8])?;
            put(out, name.as_bytes())?;
            put(out, &(len as u64).to_le_bytes())?;
            for part in parts {
                put(out, part)?;
            }
        }
        out.write_all(&crc.finish().to_le_bytes())
    }

    /// Write the snapshot to `path` atomically (write `.tmp` sibling,
    /// fsync, rename). Returns the number of bytes written.
    pub fn write_atomic(&self, path: &Path) -> Result<u64, CkptError> {
        let tmp = path.with_extension("tmp");
        let mut file = BufWriter::new(File::create(&tmp)?);
        self.write_to(&mut file)?;
        file.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(self.encoded_len() as u64)
    }
}

/// A decoded, checksum-validated snapshot. Sections are read in place
/// from the file's bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    pub superstep: u32,
    pub num_nodes: u32,
    bytes: Vec<u8>,
    /// Each section's name and its payload's place in `bytes`.
    sections: Vec<(String, Range<usize>)>,
}

impl Snapshot {
    /// Decode a container from raw bytes, validating magic, version,
    /// framing, and the trailing CRC-32.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, CkptError> {
        Snapshot::parse(bytes.to_vec())
    }

    /// Read and validate a snapshot file.
    pub fn read(path: &Path) -> Result<Snapshot, CkptError> {
        Snapshot::parse(std::fs::read(path)?)
    }

    fn parse(bytes: Vec<u8>) -> Result<Snapshot, CkptError> {
        if bytes.len() < 24 {
            return Err(CkptError::Truncated);
        }
        if &bytes[..4] != MAGIC {
            return Err(CkptError::BadMagic);
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
        let actual = crc32(body);
        if stored != actual {
            return Err(CkptError::ChecksumMismatch {
                expected: stored,
                actual,
            });
        }
        let mut r = ByteReader::new(&body[4..]);
        let version = r.read_u32()?;
        if version != FORMAT_VERSION {
            return Err(CkptError::UnsupportedVersion(version));
        }
        let superstep = r.read_u32()?;
        let num_nodes = r.read_u32()?;
        let section_count = r.read_u32()?;
        let mut sections = Vec::with_capacity(section_count.min(64) as usize);
        for _ in 0..section_count {
            let name_len = r.read_u8()? as usize;
            let name = std::str::from_utf8(r.take(name_len)?)
                .map_err(|_| CkptError::Decode("non-utf8 section name".into()))?
                .to_string();
            let payload_len = r.read_len(1)?;
            r.take(payload_len)?;
            let end = body.len() - r.remaining();
            sections.push((name, end - payload_len..end));
        }
        r.expect_end()?;
        Ok(Snapshot {
            superstep,
            num_nodes,
            bytes,
            sections,
        })
    }

    pub fn section(&self, name: &str) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, at)| &self.bytes[at.clone()])
    }

    pub fn require(&self, name: &'static str) -> Result<&[u8], CkptError> {
        self.section(name).ok_or(CkptError::MissingSection(name))
    }

    pub fn section_names(&self) -> impl Iterator<Item = &str> {
        self.sections.iter().map(|(n, _)| n.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 300 repeatable filler bytes: long enough that a snapshot holding
    /// them is checksummed by the folding kernel.
    fn long_section() -> Vec<u8> {
        (0..300u32).map(|i| (i * 37 % 251) as u8).collect()
    }

    fn sample() -> SnapshotBuilder {
        SnapshotBuilder::new(7, 100)
            .section("values", vec![1, 2, 3, 4])
            .section("halted", vec![0, 1])
            .section("empty", Vec::new())
            .section("long", long_section())
    }

    #[test]
    fn encode_decode_round_trip() {
        let snap = Snapshot::decode(&sample().encode()).unwrap();
        assert_eq!(snap.superstep, 7);
        assert_eq!(snap.num_nodes, 100);
        assert_eq!(snap.section("values"), Some(&[1u8, 2, 3, 4][..]));
        assert_eq!(snap.section("halted"), Some(&[0u8, 1][..]));
        assert_eq!(snap.section("empty"), Some(&[][..]));
        assert_eq!(snap.section("long"), Some(&long_section()[..]));
        assert_eq!(snap.section("missing"), None);
        assert!(matches!(
            snap.require("missing"),
            Err(CkptError::MissingSection("missing"))
        ));
        assert_eq!(
            snap.section_names().collect::<Vec<_>>(),
            vec!["values", "halted", "empty", "long"]
        );
    }

    #[test]
    fn flipped_byte_rejected_anywhere() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(Snapshot::decode(&bad).is_err(), "flip at byte {i} accepted");
        }
    }

    #[test]
    fn truncation_rejected_at_every_length() {
        let bytes = sample().encode();
        for keep in 0..bytes.len() {
            assert!(
                Snapshot::decode(&bytes[..keep]).is_err(),
                "truncation to {keep} accepted"
            );
        }
    }

    #[test]
    fn bad_magic_and_version() {
        let mut bytes = sample().encode();
        bytes[0] = b'X';
        assert!(matches!(Snapshot::decode(&bytes), Err(CkptError::BadMagic)));

        // Rebuild with a bumped version and a fixed-up CRC: versioned
        // rejection must be distinguishable from corruption.
        let mut bytes = sample().encode();
        bytes[4] = 99;
        let body_len = bytes.len() - 4;
        let crc = crate::crc::crc32(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            Snapshot::decode(&bytes),
            Err(CkptError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn atomic_write_then_read() {
        let dir = std::env::temp_dir().join(format!("gm-ckpt-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.gmck");
        let written = sample().write_atomic(&path).unwrap();
        assert_eq!(written, std::fs::metadata(&path).unwrap().len());
        assert_eq!(std::fs::read(&path).unwrap(), sample().encode());
        assert!(!path.with_extension("tmp").exists());
        let snap = Snapshot::read(&path).unwrap();
        assert_eq!(snap.superstep, 7);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The bytes the commit before the slicing-by-8 CRC encoded for this
    /// two-section snapshot (dumped there): the GMCK format did not move,
    /// and a snapshot written then still restores.
    #[test]
    fn encoded_bytes_match_the_pre_slicing_golden() {
        const GOLDEN: &[u8] = b"GMCK\x01\0\0\0\x07\0\0\0\x64\0\0\0\x02\0\0\0\
            \x06values\x04\0\0\0\0\0\0\0\x01\x02\x03\x04\
            \x06halted\x02\0\0\0\0\0\0\0\x00\x01\
            \x5c\x83\x9c\x5f";
        let built = SnapshotBuilder::new(7, 100)
            .section("values", vec![1, 2, 3, 4])
            .section("halted", vec![0, 1])
            .encode();
        assert_eq!(built, GOLDEN);

        let snap = Snapshot::decode(GOLDEN).unwrap();
        assert_eq!((snap.superstep, snap.num_nodes), (7, 100));
        assert_eq!(snap.section("values"), Some(&[1u8, 2, 3, 4][..]));
        assert_eq!(snap.section("halted"), Some(&[0u8, 1][..]));

        // A 300-byte section puts the checksummed body (352 bytes) on the
        // folding CRC kernel. Dumped with the slicing-by-8 table kernel at
        // commit 6064121: folding did not move the format either.
        let values = long_section();
        let mut folded = b"GMCK\x01\0\0\0\x09\0\0\0\x2c\x01\0\0\x02\0\0\0\
            \x06values\x2c\x01\0\0\0\0\0\0"
            .to_vec();
        folded.extend_from_slice(&values);
        folded.extend_from_slice(b"\x06halted\x02\0\0\0\0\0\0\0\x00\x01\x99\x50\x46\x2f");
        let built = SnapshotBuilder::new(9, 300)
            .section("values", values.clone())
            .section("halted", vec![0, 1])
            .encode();
        assert_eq!(built, folded);

        let snap = Snapshot::decode(&folded).unwrap();
        assert_eq!((snap.superstep, snap.num_nodes), (9, 300));
        assert_eq!(snap.section("values"), Some(&values[..]));
    }

    /// A section given in parts is the section of their concatenation,
    /// empty parts included, in memory and on disk.
    #[test]
    fn parts_encode_as_their_concatenation() {
        let long = long_section();
        let parts = SnapshotBuilder::new(7, 100)
            .section_parts("values", vec![vec![1, 2], Vec::new(), vec![3, 4]])
            .section_parts("halted", vec![vec![0, 1]])
            .section_parts("empty", Vec::new())
            .section_parts("long", vec![long[..100].to_vec(), long[100..].to_vec()]);
        assert_eq!(parts.encode(), sample().encode());
        let dir = std::env::temp_dir().join(format!("gm-ckpt-parts-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.gmck");
        let written = parts.write_atomic(&path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), sample().encode());
        assert_eq!(written, sample().encode().len() as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(sample().encode(), sample().encode());
    }
}
