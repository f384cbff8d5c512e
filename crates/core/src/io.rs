//! Binary persistence for trained models — crash-safe and end-to-end
//! integrity-checked.
//!
//! A small self-describing format (magic + shape header + raw
//! little-endian `f32` payloads) instead of a serde dependency: the tables
//! are large flat float arrays, so the natural encoding is also the fast
//! one, and the format is trivially stable across versions of this crate.
//!
//! Two format versions exist:
//!
//! ```text
//! MARSMDL2 (written by `save`)
//!   magic    b"MARSMDL2"                                       8 bytes
//!   header   num_users, num_items, facets, dim,
//!            geometry(0/1), 1                   — six u64 LE  48 bytes
//!   hcrc     CRC-32 (IEEE) of the 48 header bytes, u32 LE      4 bytes
//!   sections one per weight table, in the fixed order below:
//!              payload   n × f32 LE
//!              scrc      CRC-32 of the payload bytes, u32 LE
//!   trailer  total file length in bytes (incl. itself), u64 LE 8 bytes
//!
//! MARSMDL1 (legacy; `load` still reads it, `save_legacy` still writes it)
//!   magic + header + raw payloads, no checksums, no trailer
//! ```
//!
//! Section order: `theta`, `user_facets`, `item_facets`. The sixth header
//! word is the constant 1: it tagged the parameterization when the format
//! had a second one (0, with other sections), and it keeps its place so
//! that the byte layout of both versions is unchanged. [`load`] refuses a
//! file tagged 0 as a parameterization mismatch and any other value as a
//! corrupt header.
//!
//! ## Integrity contract
//!
//! A v2 file is rejected with a typed [`SnapshotError`] — never loaded
//! into a live model — if it is truncated at **any** byte (including
//! exactly at a section boundary), if any single bit of the header, a
//! payload, a CRC, or the trailer is flipped, or if its shapes disagree
//! with the [`MarsConfig`] the caller provides. The corruption-matrix test
//! (`crates/core/tests/io_corruption.rs`) proves all three exhaustively.
//!
//! ## Crash-safe publish
//!
//! [`save`] never writes `path` in place: it writes a sibling temp file,
//! fsyncs it, and atomically `rename`s it over `path` (then fsyncs the
//! directory so the rename itself is durable). A reader — e.g. a serving
//! process hot-swapping snapshots — therefore sees either the complete old
//! file or the complete new one, never a torn intermediate; a crash
//! mid-save leaves at worst a stale `.tmp` sibling.
//!
//! Only the *weights* round-trip; the returned model carries the provided
//! config (which must agree with the stored shapes).

use crate::config::{Geometry, MarsConfig};
use crate::model::MultiFacetModel;
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC_V1: &[u8; 8] = b"MARSMDL1";
const MAGIC_V2: &[u8; 8] = b"MARSMDL2";
/// The sixth header word (see the module docs).
const PARAM_TAG: u64 = 1;

/// Which part of a snapshot file an error was detected in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Section {
    /// Magic + shape header (+ its CRC in v2).
    Header,
    /// The facet-weight logits table.
    Theta,
    /// The user facet table.
    UserFacets,
    /// The item facet table.
    ItemFacets,
    /// The total-length trailer.
    Trailer,
}

impl std::fmt::Display for Section {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Section::Header => write!(f, "header"),
            Section::Theta => write!(f, "theta"),
            Section::UserFacets => write!(f, "user_facets"),
            Section::ItemFacets => write!(f, "item_facets"),
            Section::Trailer => write!(f, "trailer"),
        }
    }
}

/// Why a snapshot could not be loaded (or saved). Every variant is
/// distinguishable so a serving supervisor can react differently to a
/// half-written file (retry after the writer finishes), a bit-flipped one
/// (alert, keep serving the old snapshot), and an operator error (wrong
/// config for the file).
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying filesystem error (open/create/rename/fsync).
    Io(io::Error),
    /// The file does not start with a known MARS model magic.
    BadMagic,
    /// The file ends mid-`section` — a torn or still-in-progress write.
    Truncated(Section),
    /// `section`'s checksum (or tag validity) check failed — bit rot, a
    /// corrupted transfer, or an overwritten region.
    Corrupt(Section),
    /// The stored shape/geometry/parameterization disagrees with the
    /// [`MarsConfig`] passed to [`load`].
    ShapeMismatch {
        /// Which header field disagreed.
        field: &'static str,
        /// The value in the file.
        stored: u64,
        /// The value the provided config implies.
        expected: u64,
    },
    /// The total-length trailer disagrees with the bytes actually present
    /// (extension, concatenation, or trailing garbage).
    TrailerMismatch {
        /// Length the trailer claims.
        stored: u64,
        /// Length implied by the sections actually read.
        actual: u64,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a MARS model file"),
            SnapshotError::Truncated(s) => write!(f, "snapshot truncated in {s}"),
            SnapshotError::Corrupt(s) => write!(f, "snapshot corrupt in {s}"),
            SnapshotError::ShapeMismatch {
                field,
                stored,
                expected,
            } => write!(
                f,
                "snapshot {field} mismatch: file has {stored}, config expects {expected}"
            ),
            SnapshotError::TrailerMismatch { stored, actual } => write!(
                f,
                "snapshot trailer claims {stored} bytes but {actual} are present"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, the zlib/PNG polynomial), table-driven, dep-free.
// ---------------------------------------------------------------------------

/// Slicing-by-8 tables: `t[0]` is the classic bytewise table, and `t[k][b]`
/// is the CRC of byte `b` followed by `k` zero bytes, so eight lookups fold
/// eight bytes at once.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            k += 1;
        }
        i += 1;
    }
    t
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// Incremental CRC-32 (IEEE). `Crc32::new().update(b).finish()` matches
/// zlib's `crc32(0, b)` — pinned by a golden-value test below.
#[derive(Clone, Copy, Debug)]
pub struct Crc32(u32);

impl Crc32 {
    /// A fresh checksum state.
    pub fn new() -> Self {
        Self(0xFFFF_FFFF)
    }

    /// Folds `bytes` into the checksum: eight bytes per step
    /// (slicing-by-8), the tail one byte at a time.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &CRC32_TABLES;
        let mut c = self.0;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            c = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }

    /// The finalized checksum value.
    pub fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------------
// Save
// ---------------------------------------------------------------------------

/// Saves the model's weights to `path` in the checksummed `MARSMDL2`
/// format, via an atomic temp-file + fsync + rename publish (see the
/// module docs — a crash at any instant leaves `path` either absent, the
/// complete old file, or the complete new file).
pub fn save(model: &MultiFacetModel, path: &Path) -> Result<(), SnapshotError> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);

    let result = (|| -> Result<(), SnapshotError> {
        let file = File::create(&tmp)?;
        let mut w = BufWriter::new(file);
        let total = write_v2(model, &mut w)?;
        w.flush()?;
        let file = w
            .into_inner()
            .map_err(|e| SnapshotError::Io(e.into_error()))?;
        // fsync the data before the rename can make it visible — otherwise
        // a crash could publish a name pointing at unwritten blocks.
        file.sync_all()?;
        drop(file);
        debug_assert_eq!(total, fs::metadata(&tmp)?.len());
        fs::rename(&tmp, path)?;
        // Make the rename itself durable. Directory fsync is best-effort
        // on platforms where directories cannot be opened (non-unix).
        if let Some(dir) = dir {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        } else if let Ok(d) = File::open(".") {
            let _ = d.sync_all();
        }
        Ok(())
    })();
    if result.is_err() {
        // Best-effort cleanup; the temp name is pid-qualified so a stale
        // sibling can never be confused for a published snapshot.
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Writes the v2 byte stream and returns the total length written.
fn write_v2<W: Write>(model: &MultiFacetModel, w: &mut W) -> Result<u64, SnapshotError> {
    let header = header_words(model);
    let mut header_bytes = [0u8; 48];
    for (i, v) in header.iter().enumerate() {
        header_bytes[i * 8..i * 8 + 8].copy_from_slice(&v.to_le_bytes());
    }
    let mut hcrc = Crc32::new();
    hcrc.update(&header_bytes);

    w.write_all(MAGIC_V2)?;
    w.write_all(&header_bytes)?;
    w.write_all(&hcrc.finish().to_le_bytes())?;
    let mut total: u64 = 8 + 48 + 4;

    for (_, xs) in section_tables(model) {
        let crc = write_f32s_crc(w, xs)?;
        w.write_all(&crc.to_le_bytes())?;
        total += xs.len() as u64 * 4 + 4;
    }

    total += 8; // the trailer itself counts
    w.write_all(&total.to_le_bytes())?;
    Ok(total)
}

/// Saves in the legacy un-checksummed `MARSMDL1` format (direct write, no
/// atomic publish). Kept for interop with pre-v2 readers and for the
/// v1-compat tests; new code should use [`save`].
// audit:allow(orphan-pub) — reference twin: writes the v1 format the v1-compat tests read
pub fn save_legacy(model: &MultiFacetModel, path: &Path) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(MAGIC_V1)?;
    for v in header_words(model) {
        w.write_all(&v.to_le_bytes())?;
    }
    for (_, xs) in section_tables(model) {
        write_f32s_crc(&mut w, xs)?;
    }
    w.flush()
}

/// The six header words shared by both format versions.
fn header_words(model: &MultiFacetModel) -> [u64; 6] {
    let cfg = model.config();
    let geometry_tag: u64 = match cfg.geometry {
        Geometry::Euclidean => 0,
        Geometry::Spherical => 1,
    };
    [
        model.num_users() as u64,
        model.num_items() as u64,
        cfg.facets as u64,
        cfg.dim as u64,
        geometry_tag,
        PARAM_TAG,
    ]
}

/// The weight tables in serialization order, with their section labels.
fn section_tables(model: &MultiFacetModel) -> [(Section, &[f32]); 3] {
    let params = model.params();
    [
        (Section::Theta, model.theta_logits().as_slice()),
        (Section::UserFacets, params.user_facets.as_slice()),
        (Section::ItemFacets, params.item_facets.as_slice()),
    ]
}

// ---------------------------------------------------------------------------
// Load
// ---------------------------------------------------------------------------

/// Loads a model saved by [`save`] (v2) or [`save_legacy`] (v1), attaching
/// the given config.
///
/// The header is validated against `cfg` — shapes, geometry, and the
/// parameterization word must agree ([`SnapshotError::ShapeMismatch`]
/// otherwise) — and, for v2 files, every section's CRC and the total
/// length are verified before any model is constructed: a torn, truncated
/// or bit-flipped file is **never** turned into a live snapshot.
pub fn load(cfg: MarsConfig, path: &Path) -> Result<MultiFacetModel, SnapshotError> {
    let mut r = BufReader::new(File::open(path)?);
    let mut magic = [0u8; 8];
    read_exact_in(&mut r, &mut magic, Section::Header)?;
    let model = match &magic {
        m if m == MAGIC_V2 => load_v2(cfg, &mut r),
        m if m == MAGIC_V1 => load_v1(cfg, &mut r),
        _ => Err(SnapshotError::BadMagic),
    }?;
    // A loaded snapshot is about to be indexed and served: build the
    // item-norm table here rather than under the first query. (Euclidean
    // scoring never reads it.)
    if model.config().geometry == Geometry::Spherical {
        model.item_norms();
    }
    Ok(model)
}

fn load_v2<R: Read>(cfg: MarsConfig, r: &mut R) -> Result<MultiFacetModel, SnapshotError> {
    let mut header_bytes = [0u8; 48];
    read_exact_in(r, &mut header_bytes, Section::Header)?;
    let mut crc_bytes = [0u8; 4];
    read_exact_in(r, &mut crc_bytes, Section::Header)?;
    let mut hcrc = Crc32::new();
    hcrc.update(&header_bytes);
    if hcrc.finish() != u32::from_le_bytes(crc_bytes) {
        return Err(SnapshotError::Corrupt(Section::Header));
    }
    let mut header = [0u64; 6];
    for (i, h) in header.iter_mut().enumerate() {
        *h = u64::from_le_bytes(header_bytes[i * 8..i * 8 + 8].try_into().unwrap());
    }
    let mut model = validate_and_alloc(cfg, header)?;

    let mut total: u64 = 8 + 48 + 4;
    for_each_section_mut(&mut model, |section, xs| {
        let crc = read_f32s_crc(r, xs, section)?;
        let mut stored = [0u8; 4];
        read_exact_in(r, &mut stored, section)?;
        if crc != u32::from_le_bytes(stored) {
            return Err(SnapshotError::Corrupt(section));
        }
        total += xs.len() as u64 * 4 + 4;
        Ok(())
    })?;
    total += 8;

    let mut trailer = [0u8; 8];
    read_exact_in(r, &mut trailer, Section::Trailer)?;
    let stored_total = u64::from_le_bytes(trailer);
    if stored_total != total {
        return Err(SnapshotError::TrailerMismatch {
            stored: stored_total,
            actual: total,
        });
    }
    expect_eof(r)?;
    Ok(model)
}

fn load_v1<R: Read>(cfg: MarsConfig, r: &mut R) -> Result<MultiFacetModel, SnapshotError> {
    let mut header = [0u64; 6];
    for h in header.iter_mut() {
        let mut buf = [0u8; 8];
        read_exact_in(r, &mut buf, Section::Header)?;
        *h = u64::from_le_bytes(buf);
    }
    let mut model = validate_and_alloc(cfg, header)?;
    for_each_section_mut(&mut model, |section, xs| {
        read_f32s_crc(r, xs, section)?;
        Ok(())
    })?;
    expect_eof(r)?;
    Ok(model)
}

/// Validates the six header words against `cfg` and allocates the model
/// they describe.
fn validate_and_alloc(cfg: MarsConfig, header: [u64; 6]) -> Result<MultiFacetModel, SnapshotError> {
    let [num_users, num_items, facets, dim, geometry_tag, param_tag] = header;
    let geometry = match geometry_tag {
        0 => Geometry::Euclidean,
        1 => Geometry::Spherical,
        _ => return Err(SnapshotError::Corrupt(Section::Header)),
    };
    if param_tag > PARAM_TAG {
        return Err(SnapshotError::Corrupt(Section::Header));
    }
    let expect_geometry: u64 = match cfg.geometry {
        Geometry::Euclidean => 0,
        Geometry::Spherical => 1,
    };
    if cfg.facets as u64 != facets {
        return Err(SnapshotError::ShapeMismatch {
            field: "facets",
            stored: facets,
            expected: cfg.facets as u64,
        });
    }
    if cfg.dim as u64 != dim {
        return Err(SnapshotError::ShapeMismatch {
            field: "dim",
            stored: dim,
            expected: cfg.dim as u64,
        });
    }
    if cfg.geometry != geometry {
        return Err(SnapshotError::ShapeMismatch {
            field: "geometry",
            stored: geometry_tag,
            expected: expect_geometry,
        });
    }
    if param_tag != PARAM_TAG {
        return Err(SnapshotError::ShapeMismatch {
            field: "parameterization",
            stored: param_tag,
            expected: PARAM_TAG,
        });
    }
    // Table sizes scale with users × facets (×dim); refuse absurd counts
    // before allocating — a corrupt header must not become an OOM.
    const MAX_ROWS: u64 = 1 << 40;
    if num_users == 0 || num_items == 0 || num_users > MAX_ROWS || num_items > MAX_ROWS {
        return Err(SnapshotError::Corrupt(Section::Header));
    }
    Ok(MultiFacetModel::new(
        cfg,
        num_users as usize,
        num_items as usize,
    ))
}

/// The mutable twin of [`section_tables`]: visits each weight table in
/// serialization order. A visitor (rather than a returned vec of `&mut`)
/// keeps the `theta`/`params` borrows sequential.
fn for_each_section_mut(
    model: &mut MultiFacetModel,
    mut f: impl FnMut(Section, &mut [f32]) -> Result<(), SnapshotError>,
) -> Result<(), SnapshotError> {
    f(Section::Theta, model.theta_logits_mut().as_mut_slice())?;
    let params = model.params_mut();
    f(Section::UserFacets, params.user_facets.as_mut_slice())?;
    f(Section::ItemFacets, params.item_facets.as_mut_slice())
}

/// `read_exact` that types EOF as [`SnapshotError::Truncated`] in the
/// given section.
fn read_exact_in<R: Read>(r: &mut R, buf: &mut [u8], at: Section) -> Result<(), SnapshotError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            SnapshotError::Truncated(at)
        } else {
            SnapshotError::Io(e)
        }
    })
}

/// The file must end exactly here; anything further is corruption.
fn expect_eof<R: Read>(r: &mut R) -> Result<(), SnapshotError> {
    let mut probe = [0u8; 1];
    match r.read(&mut probe)? {
        0 => Ok(()),
        _ => Err(SnapshotError::Corrupt(Section::Trailer)),
    }
}

/// Writes `xs` as little-endian f32 bytes and returns their CRC-32.
/// Chunked conversion avoids a full-copy buffer for big tables.
fn write_f32s_crc<W: Write>(w: &mut W, xs: &[f32]) -> io::Result<u32> {
    let mut crc = Crc32::new();
    let mut buf = [0u8; 4096];
    for chunk in xs.chunks(1024) {
        let bytes = &mut buf[..chunk.len() * 4];
        for (i, &x) in chunk.iter().enumerate() {
            bytes[i * 4..i * 4 + 4].copy_from_slice(&x.to_le_bytes());
        }
        crc.update(bytes);
        w.write_all(bytes)?;
    }
    Ok(crc.finish())
}

/// Reads `out.len()` little-endian f32s, returning their CRC-32; EOF is
/// typed as truncation in `at`.
fn read_f32s_crc<R: Read>(r: &mut R, out: &mut [f32], at: Section) -> Result<u32, SnapshotError> {
    let mut crc = Crc32::new();
    let mut buf = [0u8; 4096];
    for chunk in out.chunks_mut(1024) {
        let bytes = &mut buf[..chunk.len() * 4];
        read_exact_in(r, bytes, at)?;
        crc.update(bytes);
        for (i, x) in chunk.iter_mut().enumerate() {
            *x = f32::from_le_bytes(bytes[i * 4..i * 4 + 4].try_into().unwrap());
        }
    }
    Ok(crc.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MarsConfig;
    use crate::model::Scratch;
    use mars_data::batch::Triplet;
    use mars_metrics::Scorer;

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("mars-io-test-{name}-{}", std::process::id()));
        p
    }

    fn train_a_bit(mut m: MultiFacetModel) -> MultiFacetModel {
        let mut s = Scratch::new(m.config().facets, m.config().dim);
        for i in 0..50u32 {
            let t = Triplet {
                user: i % 4,
                positive: i % 6,
                negative: (i + 2) % 6,
            };
            m.train_triplet(t, 0.5, 0.05, &mut s);
        }
        m
    }

    /// The IEEE CRC-32 check value: crc32(b"123456789") = 0xCBF43926.
    #[test]
    fn crc32_golden_value() {
        let mut c = Crc32::new();
        c.update(b"123456789");
        assert_eq!(c.finish(), 0xCBF4_3926);
        // Split updates fold identically.
        let mut c = Crc32::new();
        c.update(b"1234");
        c.update(b"56789");
        assert_eq!(c.finish(), 0xCBF4_3926);
        let mut c = Crc32::new();
        c.update(b"");
        assert_eq!(c.finish(), 0);
    }

    /// Bitwise CRC-32 with no table: the reference the sliced update must
    /// match.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    proptest::proptest! {
        /// Any byte string, fed in pieces cut at arbitrary points (so the
        /// eight-byte steps start at every alignment), checksums as the
        /// bitwise reference does.
        #[test]
        fn sliced_crc32_matches_the_bitwise_reference(
            bytes in proptest::collection::vec(0u16..256, 0..200),
            cuts in proptest::collection::vec(0usize..200, 0..5),
        ) {
            let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(bytes.len())).collect();
            cuts.sort_unstable();
            let mut crc = Crc32::new();
            let mut start = 0;
            for cut in cuts.into_iter().chain([bytes.len()]) {
                crc.update(&bytes[start..cut]);
                start = cut;
            }
            proptest::prop_assert_eq!(crc.finish(), crc32_bitwise(&bytes));
        }
    }

    #[test]
    fn roundtrip_mars_direct() {
        let cfg = MarsConfig::mars(2, 4);
        let m = train_a_bit(MultiFacetModel::new(cfg.clone(), 4, 6));
        let path = tmpfile("direct");
        save(&m, &path).unwrap();
        let loaded = load(cfg, &path).unwrap();
        for u in 0..4 {
            for v in 0..6 {
                assert_eq!(m.score(u, v), loaded.score(u, v));
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn roundtrip_mar_direct() {
        let cfg = MarsConfig::mar(3, 4);
        let m = train_a_bit(MultiFacetModel::new(cfg.clone(), 4, 6));
        let path = tmpfile("mar-direct");
        save(&m, &path).unwrap();
        let loaded = load(cfg, &path).unwrap();
        for u in 0..4 {
            for v in 0..6 {
                assert_eq!(m.score(u, v), loaded.score(u, v));
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_is_deterministic_and_atomic_over_existing_file() {
        let cfg = MarsConfig::mars(2, 4);
        let m = train_a_bit(MultiFacetModel::new(cfg.clone(), 4, 6));
        let path = tmpfile("atomic");
        save(&m, &path).unwrap();
        let first = std::fs::read(&path).unwrap();
        // Overwriting publish: same bytes, no stale temp sibling left.
        save(&m, &path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), first);
        let dir = path.parent().unwrap();
        let stem = path.file_name().unwrap().to_string_lossy().into_owned();
        for entry in std::fs::read_dir(dir).unwrap() {
            let name = entry.unwrap().file_name().to_string_lossy().into_owned();
            assert!(
                !(name.starts_with(&stem) && name.contains(".tmp.")),
                "stale temp file left behind: {name}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_config_is_rejected_with_typed_mismatch() {
        let cfg = MarsConfig::mars(2, 4);
        let m = MultiFacetModel::new(cfg.clone(), 4, 6);
        let path = tmpfile("mismatch");
        save(&m, &path).unwrap();
        // Different K.
        match load(MarsConfig::mars(3, 4), &path) {
            Err(SnapshotError::ShapeMismatch {
                field: "facets", ..
            }) => {}
            other => panic!("expected facets mismatch, got {other:?}"),
        }
        // Different geometry (mar = Euclidean; mismatch order: geometry is
        // checked after facets/dim, so match dims).
        match load(MarsConfig::mar(2, 4), &path) {
            Err(SnapshotError::ShapeMismatch { .. }) => {}
            other => panic!("expected shape mismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn parameterization_word_other_than_one_is_rejected_in_both_versions() {
        let cfg = MarsConfig::mars(2, 4);
        let m = MultiFacetModel::new(cfg.clone(), 4, 6);
        let path = tmpfile("param-word");
        for v2 in [false, true] {
            if v2 {
                save(&m, &path).unwrap();
            } else {
                save_legacy(&m, &path).unwrap();
            }
            let original = std::fs::read(&path).unwrap();
            // The sixth header word sits after the magic and five words; v2
            // follows the header with its CRC, recomputed here so that the
            // word itself is what `load` objects to.
            let load_with = |word: u64| {
                let mut bytes = original.clone();
                bytes[48..56].copy_from_slice(&word.to_le_bytes());
                if v2 {
                    let mut crc = Crc32::new();
                    crc.update(&bytes[8..56]);
                    bytes[56..60].copy_from_slice(&crc.finish().to_le_bytes());
                }
                std::fs::write(&path, &bytes).unwrap();
                load(cfg.clone(), &path)
            };
            assert!(
                load_with(1).is_ok(),
                "v2 {v2}: rewriting 1 must be harmless"
            );
            assert!(
                matches!(
                    load_with(0),
                    Err(SnapshotError::ShapeMismatch {
                        field: "parameterization",
                        stored: 0,
                        expected: 1,
                    })
                ),
                "v2 {v2}: tag 0"
            );
            assert!(
                matches!(load_with(2), Err(SnapshotError::Corrupt(Section::Header))),
                "v2 {v2}: tag 2"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    /// Format pin: length and whole-file CRC-32 of one small snapshot,
    /// computed before the sixth header word became a constant — what
    /// `save` writes for a given model has not moved.
    #[test]
    fn snapshot_bytes_are_pinned() {
        let m = MultiFacetModel::new(MarsConfig::mars(2, 3), 4, 6);
        let path = tmpfile("pin");
        save(&m, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let mut crc = Crc32::new();
        crc.update(&bytes);
        assert_eq!((bytes.len(), crc.finish()), (352, 0x63BD_8B7E));
    }

    #[test]
    fn corrupt_magic_is_rejected() {
        let path = tmpfile("magic");
        std::fs::write(&path, b"NOTAMARS________________").unwrap();
        assert!(matches!(
            load(MarsConfig::mars(2, 4), &path),
            Err(SnapshotError::BadMagic)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn legacy_v1_files_still_load() {
        let cfg = MarsConfig::mar(2, 4);
        let m = train_a_bit(MultiFacetModel::new(cfg.clone(), 4, 6));
        let path = tmpfile("legacy");
        save_legacy(&m, &path).unwrap();
        let loaded = load(cfg, &path).unwrap();
        for u in 0..4 {
            for v in 0..6 {
                assert_eq!(m.score(u, v), loaded.score(u, v));
            }
        }
        std::fs::remove_file(&path).ok();
    }
}
