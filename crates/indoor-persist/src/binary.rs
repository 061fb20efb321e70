//! Binary venue files: the built venue model, adopted without a rebuild.
//!
//! Layout (all integers little-endian, full reference in `docs/PERSIST.md`):
//!
//! ```text
//! magic            8 bytes  b"IKRQVEN\0"
//! file version     u16 = 3
//! model section    b"IKRQCOL\0" + u16 version + u32 len + body + u64 checksum
//!                  (see crate::columnar)
//! index section    optional, see crate::index_section
//! ```
//!
//! [`load_venue_model`] decodes the model section and adopts its columns
//! wholesale. Every defect in the file header or the model section is a
//! [`PersistError`]; only the index section is advisory. Binary files are
//! not an archive format: files of other versions (1 and 2 carried a record
//! body) are refused with a hint to regenerate them, and JSON
//! ([`crate::json`]) is the long-lived interchange format.

use crate::columnar::{
    adopt_columnar_parts, columnar_section_len, decode_columnar_parts, encode_columnar_section,
    DocumentLoadStats, LoadedVenue,
};
use crate::document::VenueDocument;
use crate::error::PersistError;
use crate::index_section::{decode_index_section, encode_index_section};
use crate::Result;
use bytes::{BufMut, Bytes, BytesMut};
use indoor_index::VenueIndex;
use indoor_keywords::KeywordDirectory;
use indoor_space::IndoorSpace;
use std::fs;
use std::path::Path;
use std::time::Instant;

/// Magic bytes opening every binary venue file.
pub const VENUE_MAGIC: &[u8; 8] = b"IKRQVEN\0";

/// The binary venue file version this build writes and reads.
pub const FILE_VERSION: u16 = 3;

/// Magic plus version word.
const FILE_HEADER_LEN: usize = 8 + 2;

/// Encodes a venue as a binary venue file: the header, the model section
/// capturing `space` and `directory` wholesale, and optionally a pre-built
/// index section.
///
/// `space` and `directory` must be the model rebuilt from `doc` itself
/// (i.e. the output of [`VenueDocument::build`]): interned word ids and CSR
/// layouts are insertion-order artifacts, and the adopted model must serve
/// exactly like the JSON form of the same document. `doc` supplies the name
/// and grid cell. `index`, when given, must have been built against that
/// same `directory` (its section records the directory fingerprint, and
/// loaders verify it).
pub fn encode_venue_columnar(
    doc: &VenueDocument,
    space: &IndoorSpace,
    directory: &KeywordDirectory,
    index: Option<&VenueIndex>,
) -> Result<Bytes> {
    doc.validate()?;
    let mut buf = BytesMut::with_capacity(1 << 17);
    buf.put_slice(VENUE_MAGIC);
    buf.put_u16_le(FILE_VERSION);
    encode_columnar_section(&mut buf, &doc.name, space, directory, doc.grid_cell);
    if let Some(index) = index {
        encode_index_section(&mut buf, index, directory);
    }
    Ok(buf.freeze())
}

/// Loads a binary venue file straight into its in-memory model.
///
/// The model section decodes into flat columns and the model adopts them
/// wholesale. A wrong magic, a file version other than [`FILE_VERSION`]
/// and any defect of the model section (framing, checksum, section version,
/// a column the adoption scans reject) are errors, never a panic or a
/// silent rebuild. The index section stays advisory: its defects come back
/// as [`crate::IndexSection::Unusable`] in [`LoadedVenue::index`].
pub fn load_venue_model(payload: &[u8]) -> Result<LoadedVenue> {
    if payload.len() < FILE_HEADER_LEN || &payload[..8] != VENUE_MAGIC {
        return Err(PersistError::Binary(
            "not a binary venue file (wrong magic bytes)".into(),
        ));
    }
    let file_version = u16::from_le_bytes([payload[8], payload[9]]);
    if file_version != FILE_VERSION {
        return Err(PersistError::UnsupportedVersion {
            found: file_version,
            supported: FILE_VERSION,
        });
    }
    let rest = &payload[FILE_HEADER_LEN..];
    let len = columnar_section_len(rest).ok_or_else(|| {
        PersistError::Binary("model section framing is damaged or truncated".into())
    })?;

    let started = Instant::now();
    let parts = decode_columnar_parts(&rest[..len]).map_err(PersistError::Binary)?;
    let decode_micros = started.elapsed().as_micros() as u64;
    let started = Instant::now();
    let (name, space, directory) =
        adopt_columnar_parts(parts).map_err(PersistError::InvalidDocument)?;
    let adopt_micros = started.elapsed().as_micros() as u64;

    Ok(LoadedVenue {
        name,
        space,
        directory,
        index: decode_index_section(&rest[len..]),
        stats: DocumentLoadStats {
            format_version: file_version,
            adopted_columnar: true,
            decode_micros,
            adopt_micros,
            degraded: None,
        },
    })
}

/// Writes a binary venue file, with an optional pre-built index section.
/// See [`encode_venue_columnar`] for the binding contract on
/// `space`/`directory`/`index`.
pub fn save_venue_columnar(
    doc: &VenueDocument,
    space: &IndoorSpace,
    directory: &KeywordDirectory,
    index: Option<&VenueIndex>,
    path: impl AsRef<Path>,
) -> Result<()> {
    let payload = encode_venue_columnar(doc, space, directory, index)?;
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    fs::write(path, payload)?;
    Ok(())
}

/// Reads a binary venue file straight into its in-memory model (see
/// [`load_venue_model`]).
pub fn load_venue_model_file(path: impl AsRef<Path>) -> Result<LoadedVenue> {
    let payload = fs::read(path)?;
    load_venue_model(&payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::frame_columnar_section;
    use crate::document::{
        ConnectionRecord, DoorRecord, FloorRecord, IntraOverrideRecord, KeywordRecord,
        LoopOverrideRecord, PartitionRecord, FORMAT_VERSION,
    };
    use crate::index_section::IndexSection;
    use proptest::prelude::*;

    fn tiny_document() -> VenueDocument {
        VenueDocument {
            format_version: FORMAT_VERSION,
            name: Some("binary test".into()),
            grid_cell: 12.5,
            floors: vec![FloorRecord {
                floor: 0,
                bounds: [0.0, 0.0, 30.0, 10.0],
            }],
            partitions: vec![
                PartitionRecord {
                    id: 0,
                    floor: 0,
                    kind: "room".into(),
                    footprint: [0.0, 0.0, 10.0, 10.0],
                    name: Some("zara".into()),
                },
                PartitionRecord {
                    id: 1,
                    floor: 0,
                    kind: "hallway".into(),
                    footprint: [10.0, 0.0, 20.0, 10.0],
                    name: None,
                },
                PartitionRecord {
                    id: 2,
                    floor: 0,
                    kind: "staircase".into(),
                    footprint: [20.0, 0.0, 30.0, 10.0],
                    name: Some("stairs".into()),
                },
            ],
            doors: vec![
                DoorRecord {
                    id: 0,
                    position: [10.0, 5.0],
                    floor: 0,
                    kind: "normal".into(),
                },
                DoorRecord {
                    id: 1,
                    position: [20.0, 5.0],
                    floor: 0,
                    kind: "stair".into(),
                },
            ],
            connections: vec![
                ConnectionRecord {
                    door: 0,
                    partition: 0,
                    enterable: true,
                    leavable: true,
                },
                ConnectionRecord {
                    door: 0,
                    partition: 1,
                    enterable: true,
                    leavable: true,
                },
                ConnectionRecord {
                    door: 1,
                    partition: 1,
                    enterable: false,
                    leavable: true,
                },
                ConnectionRecord {
                    door: 1,
                    partition: 2,
                    enterable: true,
                    leavable: false,
                },
            ],
            intra_overrides: vec![IntraOverrideRecord {
                partition: 2,
                from_door: 1,
                to_door: 1,
                distance: 20.0,
            }],
            loop_overrides: vec![LoopOverrideRecord {
                partition: 0,
                door: 0,
                distance: 18.0,
            }],
            keywords: vec![
                KeywordRecord {
                    iword: "zara".into(),
                    partitions: vec![0],
                    twords: vec!["coat".into(), "pants".into()],
                },
                KeywordRecord {
                    iword: "unassigned-brand".into(),
                    partitions: vec![],
                    twords: vec!["widget".into()],
                },
            ],
        }
    }

    /// The tiny document's binary file, optionally with an index section.
    fn tiny_file(with_index: bool) -> (VenueDocument, IndoorSpace, KeywordDirectory, Bytes) {
        let doc = tiny_document();
        let (space, directory) = doc.build().unwrap();
        let index = with_index.then(|| VenueIndex::build(&space, &directory));
        let payload = encode_venue_columnar(&doc, &space, &directory, index.as_ref()).unwrap();
        (doc, space, directory, payload)
    }

    #[test]
    fn binary_files_adopt_the_model_they_were_written_from() {
        let (doc, space, directory, payload) = tiny_file(false);
        assert_eq!(&payload[..8], VENUE_MAGIC);
        let loaded = load_venue_model(&payload).unwrap();
        assert!(loaded.stats.adopted_columnar, "{:?}", loaded.stats);
        assert_eq!(loaded.stats.format_version, FILE_VERSION);
        assert!(loaded.stats.degraded.is_none());
        assert!(matches!(loaded.index, IndexSection::Absent));
        assert_eq!(loaded.name, doc.name);
        assert_eq!(loaded.directory.fingerprint(), directory.fingerprint());
        assert_eq!(
            VenueDocument::from_venue(&loaded.space, &loaded.directory, doc.grid_cell, loaded.name),
            VenueDocument::from_venue(&space, &directory, doc.grid_cell, doc.name.clone()),
        );
        assert!(loaded.directory.lookup("unassigned-brand").is_some());
    }

    #[test]
    fn binary_files_carry_an_index_section() {
        let (_, _, _, payload) = tiny_file(true);
        let loaded = load_venue_model(&payload).unwrap();
        let IndexSection::Present(prebuilt) = loaded.index else {
            panic!("expected a present index section, got {:?}", loaded.index);
        };
        // The section binds against the *adopted* directory — fingerprint
        // identity with the document rebuild is what makes this possible.
        assert!(prebuilt.into_index(&loaded.directory).is_ok());
    }

    #[test]
    fn invalid_documents_are_refused_at_encode_time() {
        let (space, directory) = tiny_document().build().unwrap();
        let mut doc = tiny_document();
        doc.format_version = FORMAT_VERSION + 1;
        assert!(encode_venue_columnar(&doc, &space, &directory, None).is_err());
        let mut doc = tiny_document();
        doc.grid_cell = 0.0;
        assert!(encode_venue_columnar(&doc, &space, &directory, None).is_err());
    }

    #[test]
    fn wrong_magic_and_truncation_are_errors() {
        let (_, _, _, payload) = tiny_file(false);

        let mut corrupt = payload.to_vec();
        corrupt[0] = b'X';
        assert!(matches!(
            load_venue_model(&corrupt),
            Err(PersistError::Binary(_))
        ));

        for cut in [4, FILE_HEADER_LEN, payload.len() / 2, payload.len() - 1] {
            assert!(load_venue_model(&payload[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn record_body_and_future_versions_ask_to_be_regenerated() {
        let (_, _, _, payload) = tiny_file(false);
        // Versions 1 and 2 carried a record body; they and any future
        // version are refused with a hint to regenerate the file.
        for version in [1u16, 2, FILE_VERSION + 1] {
            let mut patched = payload.to_vec();
            patched[8..10].copy_from_slice(&version.to_le_bytes());
            let err = load_venue_model(&patched).unwrap_err();
            assert!(
                matches!(err, PersistError::UnsupportedVersion { found, .. } if found == version),
                "{err:?}"
            );
            assert!(err.to_string().contains("regenerate"), "{err}");
        }
    }

    #[test]
    fn every_model_section_flip_is_an_error() {
        let (_, _, _, payload) = tiny_file(true);
        let model_end =
            FILE_HEADER_LEN + columnar_section_len(&payload[FILE_HEADER_LEN..]).unwrap();
        for i in 0..model_end {
            let mut corrupt = payload.to_vec();
            corrupt[i] ^= 0xff;
            assert!(load_venue_model(&corrupt).is_err(), "flip at {i} loaded");
        }
        // Index-section flips degrade only the index.
        for i in model_end..payload.len() {
            let mut corrupt = payload.to_vec();
            corrupt[i] ^= 0xff;
            let loaded = load_venue_model(&corrupt)
                .unwrap_or_else(|e| panic!("index flip at {i} failed the load: {e}"));
            assert!(!matches!(loaded.index, IndexSection::Absent), "flip at {i}");
        }
    }

    #[test]
    fn a_checksum_valid_garbage_body_is_refused_by_the_decoder() {
        let mut reframed = BytesMut::new();
        reframed.put_slice(VENUE_MAGIC);
        reframed.put_u16_le(FILE_VERSION);
        frame_columnar_section(&mut reframed, &[0xff; 32]);
        assert!(matches!(
            load_venue_model(reframed.as_ref()),
            Err(PersistError::Binary(_))
        ));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("ikrq-binary-test-{}", std::process::id()));
        let path = dir.join("nested").join("venue.ikrq");
        let doc = tiny_document();
        let (space, directory) = doc.build().unwrap();
        save_venue_columnar(&doc, &space, &directory, None, &path).unwrap();
        let loaded = load_venue_model_file(&path).unwrap();
        assert_eq!(loaded.name, doc.name);
        assert_eq!(loaded.directory.fingerprint(), directory.fingerprint());
        std::fs::remove_dir_all(&dir).ok();
        assert!(matches!(
            load_venue_model_file(&path),
            Err(PersistError::Io(_))
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// With the checksum recomputed over a flipped body, the column
        /// decoder and the adoption scans are the only guard: they must
        /// refuse the body or adopt it, never panic.
        #[test]
        fn reframed_flipped_model_bodies_never_panic(
            flips in proptest::collection::vec((0.0f64..1.0, 1u8..=255), 1..4),
        ) {
            let (doc, space, directory, _) = tiny_file(false);
            let mut section = BytesMut::new();
            encode_columnar_section(&mut section, &doc.name, &space, &directory, doc.grid_cell);
            // Section framing: 14-byte header, body, 8-byte checksum.
            let section = section.as_ref();
            let mut body = section[14..section.len() - 8].to_vec();
            for (at, mask) in flips {
                let i = ((body.len() as f64 * at) as usize).min(body.len() - 1);
                body[i] ^= mask;
            }
            let mut reframed = BytesMut::new();
            reframed.put_slice(VENUE_MAGIC);
            reframed.put_u16_le(FILE_VERSION);
            frame_columnar_section(&mut reframed, &body);
            match load_venue_model(reframed.as_ref()) {
                Ok(loaded) => prop_assert!(loaded.stats.adopted_columnar),
                Err(e) => prop_assert!(!e.to_string().is_empty()),
            }
        }
    }
}
