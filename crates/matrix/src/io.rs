//! Binary persistence for compressed H2 matrices.
//!
//! Compressing a large operator costs minutes; reusing it across runs
//! (solver pipelines, parameter studies) should not require
//! reconstruction. This module provides a versioned, framed little-endian
//! binary format for [`H2Matrix`] — including its cluster tree and
//! partition, so a loaded matrix is fully self-contained — written with
//! `std::io` only (no serialization-framework dependency).
//!
//! Format: magic `b"H2SK"` (symmetric) or `b"H2SU"` (unsymmetric), a format
//! version, then length-prefixed sections (points, permutations, tree
//! nodes, partition lists, bases, skeletons, block stores; the unsymmetric
//! magic adds the column-side basis/skeleton sections). All integers are
//! `u64` little-endian. Since version 2 every basis and block carries a
//! precision tag and each block is written at its stored width — `f64` or
//! `f32` bit patterns — so a loaded operator keeps its storage and its
//! `memory_bytes`. Bases are written `f64`; an `f32`-tagged basis (older
//! version-2 files) loads promoted. Version 1 files (all `f64`, no tags)
//! still load. One reader accepts both magics and reconstructs the
//! matching [`H2Matrix`] side layout.

use crate::format::{BasisSide, BlockStore, H2Matrix, StoreLayout};
use h2_dense::{Mat, Mat32, StoredMat};
use h2_tree::{Admissibility, BBox, Cluster, ClusterTree, Partition};
use std::io::{self, Read, Write};
use std::sync::Arc;

const MAGIC_SYM: &[u8; 4] = b"H2SK";
const MAGIC_UNSYM: &[u8; 4] = b"H2SU";
/// The version written; the reader also accepts version 1.
const VERSION: u64 = 2;

// ------------------------------------------------------------ primitives

fn write_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn write_usize(w: &mut impl Write, v: usize) -> io::Result<()> {
    write_u64(w, v as u64)
}

fn read_usize(r: &mut impl Read) -> io::Result<usize> {
    let v = read_u64(r)?;
    usize::try_from(v).map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "usize overflow"))
}

fn write_f64(w: &mut impl Write, v: f64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_f64(r: &mut impl Read) -> io::Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

fn write_usize_slice(w: &mut impl Write, s: &[usize]) -> io::Result<()> {
    write_usize(w, s.len())?;
    for &v in s {
        write_usize(w, v)?;
    }
    Ok(())
}

fn read_usize_vec(r: &mut impl Read) -> io::Result<Vec<usize>> {
    let n = read_usize(r)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(read_usize(r)?);
    }
    Ok(out)
}

fn write_mat(w: &mut impl Write, m: &Mat) -> io::Result<()> {
    write_usize(w, m.rows())?;
    write_usize(w, m.cols())?;
    for &v in m.as_slice() {
        write_f64(w, v)?;
    }
    Ok(())
}

fn read_mat(r: &mut impl Read) -> io::Result<Mat> {
    let rows = read_usize(r)?;
    let cols = read_usize(r)?;
    let mut data = Vec::with_capacity(rows * cols);
    for _ in 0..rows * cols {
        data.push(read_f64(r)?);
    }
    Ok(Mat::from_vec(rows, cols, data))
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// A precision tag followed by the matrix at that width.
fn write_stored(w: &mut impl Write, m: StoredMat<'_>) -> io::Result<()> {
    match m {
        StoredMat::F64(m) => {
            write_u64(w, 0)?;
            write_mat(w, m)
        }
        StoredMat::F32(m) => {
            write_u64(w, 1)?;
            write_usize(w, m.rows())?;
            write_usize(w, m.cols())?;
            for &v in m.as_slice() {
                w.write_all(&v.to_le_bytes())?;
            }
            Ok(())
        }
    }
}

/// What [`write_stored`] wrote: an f64 matrix or an f32 one.
enum Stored {
    F64(Mat),
    F32(Mat32),
}

/// A matrix written by [`write_stored`] — or, in a `version` 1 file, an
/// untagged f64 matrix.
fn read_stored(r: &mut impl Read, version: u64) -> io::Result<Stored> {
    if version == 1 {
        return Ok(Stored::F64(read_mat(r)?));
    }
    match read_u64(r)? {
        0 => Ok(Stored::F64(read_mat(r)?)),
        1 => {
            let rows = read_usize(r)?;
            let cols = read_usize(r)?;
            let len = rows
                .checked_mul(cols)
                .ok_or_else(|| invalid("matrix size overflow"))?;
            let mut data = Vec::with_capacity(len.min(1 << 20));
            let mut b = [0u8; 4];
            for _ in 0..len {
                r.read_exact(&mut b)?;
                data.push(f32::from_le_bytes(b));
            }
            Ok(Stored::F32(Mat32::from_vec(rows, cols, data)))
        }
        tag => Err(invalid(format!("bad precision tag {tag}"))),
    }
}

fn write_block_store(w: &mut impl Write, s: &BlockStore) -> io::Result<()> {
    write_usize(w, s.pairs.len())?;
    for (i, &(a, b)) in s.pairs.iter().enumerate() {
        write_usize(w, a)?;
        write_usize(w, b)?;
        write_stored(w, s.block(i))?;
    }
    Ok(())
}

fn read_block_store(
    r: &mut impl Read,
    layout: StoreLayout,
    version: u64,
) -> io::Result<BlockStore> {
    let n = read_usize(r)?;
    let mut s = BlockStore::with_layout(layout);
    for _ in 0..n {
        let a = read_usize(r)?;
        let b = read_usize(r)?;
        if layout == StoreLayout::Symmetric && a > b {
            return Err(invalid("unordered symmetric pair"));
        }
        if s.get(a, b).is_some() {
            return Err(invalid(format!("duplicate block pair ({a},{b})")));
        }
        match read_stored(r, version)? {
            Stored::F64(m) => s.insert(a, b, m),
            Stored::F32(_) if a == b => {
                return Err(invalid(format!("diagonal block ({a},{a}) stored f32")))
            }
            Stored::F32(m) => s.insert_f32(a, b, m),
        }
    }
    Ok(s)
}

/// One basis side, at f64: bases are always stored f64.
fn write_basis_section(w: &mut impl Write, basis: &[Mat]) -> io::Result<()> {
    write_usize(w, basis.len())?;
    for b in basis {
        write_stored(w, StoredMat::F64(b))?;
    }
    Ok(())
}

/// One basis side. Version-2 files written before bases were always f64
/// may tag a basis f32; it loads promoted.
fn read_basis_section(r: &mut impl Read, version: u64) -> io::Result<Vec<Mat>> {
    let nb = read_usize(r)?;
    let mut basis = Vec::with_capacity(nb.min(1 << 20));
    for _ in 0..nb {
        basis.push(match read_stored(r, version)? {
            Stored::F64(m) => m,
            Stored::F32(m) => m.promote(),
        });
    }
    Ok(basis)
}

fn write_skel_section(w: &mut impl Write, skels: &[Vec<usize>]) -> io::Result<()> {
    write_usize(w, skels.len())?;
    for s in skels {
        write_usize_slice(w, s)?;
    }
    Ok(())
}

fn read_skel_section(r: &mut impl Read) -> io::Result<Vec<Vec<usize>>> {
    let ns = read_usize(r)?;
    let mut skel = Vec::with_capacity(ns);
    for _ in 0..ns {
        skel.push(read_usize_vec(r)?);
    }
    Ok(skel)
}

// ------------------------------------------------------------- tree bits

fn write_tree(w: &mut impl Write, t: &ClusterTree) -> io::Result<()> {
    write_usize(w, t.points.len())?;
    for p in &t.points {
        for &c in p {
            write_f64(w, c)?;
        }
    }
    write_usize_slice(w, &t.perm)?;
    write_usize_slice(w, &t.iperm)?;
    write_usize_slice(w, &t.level_ptr)?;
    write_usize(w, t.nodes.len())?;
    for c in &t.nodes {
        write_usize(w, c.begin)?;
        write_usize(w, c.end)?;
        for &v in &c.bbox.min {
            write_f64(w, v)?;
        }
        for &v in &c.bbox.max {
            write_f64(w, v)?;
        }
        match c.children {
            Some((a, b)) => {
                write_u64(w, 1)?;
                write_usize(w, a)?;
                write_usize(w, b)?;
            }
            None => write_u64(w, 0)?,
        }
        match c.parent {
            Some(p) => {
                write_u64(w, 1)?;
                write_usize(w, p)?;
            }
            None => write_u64(w, 0)?,
        }
    }
    Ok(())
}

fn read_tree(r: &mut impl Read) -> io::Result<ClusterTree> {
    let npts = read_usize(r)?;
    let mut points = Vec::with_capacity(npts);
    for _ in 0..npts {
        let mut p = [0.0; 3];
        for c in p.iter_mut() {
            *c = read_f64(r)?;
        }
        points.push(p);
    }
    let perm = read_usize_vec(r)?;
    let iperm = read_usize_vec(r)?;
    let level_ptr = read_usize_vec(r)?;
    let nnodes = read_usize(r)?;
    let mut nodes = Vec::with_capacity(nnodes);
    for _ in 0..nnodes {
        let begin = read_usize(r)?;
        let end = read_usize(r)?;
        let mut min = [0.0; 3];
        let mut max = [0.0; 3];
        for v in min.iter_mut() {
            *v = read_f64(r)?;
        }
        for v in max.iter_mut() {
            *v = read_f64(r)?;
        }
        let children = if read_u64(r)? == 1 {
            Some((read_usize(r)?, read_usize(r)?))
        } else {
            None
        };
        let parent = if read_u64(r)? == 1 {
            Some(read_usize(r)?)
        } else {
            None
        };
        nodes.push(Cluster {
            begin,
            end,
            bbox: BBox { min, max },
            children,
            parent,
        });
    }
    let tree = ClusterTree {
        points,
        perm,
        iperm,
        nodes,
        level_ptr,
    };
    tree.validate()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    Ok(tree)
}

fn write_partition(w: &mut impl Write, p: &Partition) -> io::Result<()> {
    match p.rule {
        Admissibility::Strong { eta } => {
            write_u64(w, 0)?;
            write_f64(w, eta)?;
        }
        Admissibility::Weak => write_u64(w, 1)?,
    }
    write_usize(w, p.nlevels)?;
    for lists in [&p.far_of, &p.near_of, &p.inadm_of] {
        write_usize(w, lists.len())?;
        for l in lists {
            write_usize_slice(w, l)?;
        }
    }
    Ok(())
}

fn read_partition(r: &mut impl Read) -> io::Result<Partition> {
    let rule = match read_u64(r)? {
        0 => Admissibility::Strong { eta: read_f64(r)? },
        1 => Admissibility::Weak,
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad admissibility tag",
            ))
        }
    };
    let nlevels = read_usize(r)?;
    let mut lists: Vec<Vec<Vec<usize>>> = Vec::with_capacity(3);
    for _ in 0..3 {
        let n = read_usize(r)?;
        let mut outer = Vec::with_capacity(n);
        for _ in 0..n {
            outer.push(read_usize_vec(r)?);
        }
        lists.push(outer);
    }
    let inadm_of = lists.pop().unwrap();
    let near_of = lists.pop().unwrap();
    let far_of = lists.pop().unwrap();
    Ok(Partition {
        rule,
        far_of,
        near_of,
        inadm_of,
        nlevels,
    })
}

// --------------------------------------------------------------- matrix

impl H2Matrix {
    /// Serialize the matrix (including its tree and partition) to a writer.
    /// Symmetric matrices use the `H2SK` frame, unsymmetric ones `H2SU`
    /// with the extra column-side sections.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(if self.is_symmetric() {
            MAGIC_SYM
        } else {
            MAGIC_UNSYM
        })?;
        write_u64(w, VERSION)?;
        write_tree(w, &self.tree)?;
        write_partition(w, &self.partition)?;
        write_basis_section(w, &self.basis)?;
        if let Some(c) = &self.col {
            write_basis_section(w, &c.basis)?;
        }
        write_skel_section(w, &self.skel)?;
        if let Some(c) = &self.col {
            write_skel_section(w, &c.skel)?;
        }
        write_block_store(w, &self.coupling)?;
        write_block_store(w, &self.dense)?;
        Ok(())
    }

    /// Deserialize a matrix written by [`H2Matrix::write_to`] — either side
    /// layout. The result is structurally validated before being returned.
    pub fn read_from(r: &mut impl Read) -> io::Result<H2Matrix> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        let symmetric = match &magic {
            m if m == MAGIC_SYM => true,
            m if m == MAGIC_UNSYM => false,
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "not an h2sketch file",
                ))
            }
        };
        let version = read_u64(r)?;
        if !(1..=VERSION).contains(&version) {
            return Err(invalid(format!("unsupported format version {version}")));
        }
        let tree = Arc::new(read_tree(r)?);
        let partition = Arc::new(read_partition(r)?);
        let basis = read_basis_section(r, version)?;
        let col_basis = if symmetric {
            None
        } else {
            Some(read_basis_section(r, version)?)
        };
        let skel = read_skel_section(r)?;
        let col_skel = if symmetric {
            None
        } else {
            Some(read_skel_section(r)?)
        };
        let layout = if symmetric {
            StoreLayout::Symmetric
        } else {
            StoreLayout::Ordered
        };
        let coupling = read_block_store(r, layout, version)?;
        let dense = read_block_store(r, layout, version)?;
        let col = match (col_basis, col_skel) {
            (Some(basis), Some(skel)) => Some(BasisSide { basis, skel }),
            _ => None,
        };
        let h2 = H2Matrix {
            tree,
            partition,
            basis,
            skel,
            col,
            coupling,
            dense,
        };
        h2.validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        Ok(h2)
    }

    /// Serialize into an in-memory buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.write_to(&mut buf)
            .expect("in-memory write cannot fail");
        buf
    }

    /// Deserialize from an in-memory buffer.
    pub fn from_bytes(bytes: &[u8]) -> io::Result<H2Matrix> {
        let mut cursor = bytes;
        Self::read_from(&mut cursor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::{direct_construct, DirectConfig};
    use h2_dense::LinOp;
    use h2_kernels::{ExponentialKernel, KernelMatrix};

    fn sample_h2(n: usize, seed: u64) -> H2Matrix {
        let pts = h2_tree::uniform_cube(n, seed);
        let tree = Arc::new(ClusterTree::build(&pts, 16));
        let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
        let km = KernelMatrix::new(ExponentialKernel::default(), tree.points.clone());
        direct_construct(&km, tree, part, &DirectConfig::default())
    }

    #[test]
    fn roundtrip_preserves_matrix_exactly() {
        let h2 = sample_h2(800, 901);
        let bytes = h2.to_bytes();
        let back = H2Matrix::from_bytes(&bytes).unwrap();
        back.validate().unwrap();
        assert!(back.is_symmetric());
        // Bitwise-identical representation: dense materializations agree
        // exactly, as do memory accounting and rank structure.
        let mut d = h2.to_dense();
        d.axpy(-1.0, &back.to_dense());
        assert_eq!(d.norm_max(), 0.0);
        assert_eq!(h2.memory_bytes(), back.memory_bytes());
        assert_eq!(h2.rank_range(), back.rank_range());
        // Matvec through the loaded representation agrees bitwise.
        let x = h2_dense::gaussian_mat(800, 2, 902);
        let y1 = h2.apply_mat(&x);
        let y2 = back.apply_mat(&x);
        let mut dy = y1;
        dy.axpy(-1.0, &y2);
        assert_eq!(dy.norm_max(), 0.0);
    }

    /// `h2` (symmetric, all f64) in the untagged version 1 layout.
    fn to_v1_bytes(h2: &H2Matrix) -> Vec<u8> {
        let mut w = Vec::new();
        w.extend_from_slice(MAGIC_SYM);
        write_u64(&mut w, 1).unwrap();
        write_tree(&mut w, &h2.tree).unwrap();
        write_partition(&mut w, &h2.partition).unwrap();
        write_usize(&mut w, h2.basis.len()).unwrap();
        for b in &h2.basis {
            write_mat(&mut w, b).unwrap();
        }
        write_skel_section(&mut w, &h2.skel).unwrap();
        for store in [&h2.coupling, &h2.dense] {
            write_usize(&mut w, store.len()).unwrap();
            for (i, &(a, b)) in store.pairs.iter().enumerate() {
                write_usize(&mut w, a).unwrap();
                write_usize(&mut w, b).unwrap();
                write_mat(&mut w, &store.block(i).to_mat()).unwrap();
            }
        }
        w
    }

    #[test]
    fn version_1_files_still_load() {
        let h2 = sample_h2(400, 906);
        let back = H2Matrix::from_bytes(&to_v1_bytes(&h2)).unwrap();
        assert_eq!(back.to_bytes(), h2.to_bytes());
    }

    /// f32-stored blocks are written at their width and come back at it:
    /// same storage, same bytes held, same bits. Bases are written f64, and
    /// an f32-tagged basis of an older version-2 file loads promoted.
    #[test]
    fn roundtrip_keeps_the_storage_width() {
        let mut h2 = sample_h2(800, 907);
        h2.coupling.demote_pending(f64::INFINITY);
        h2.dense.demote_pending(f64::INFINITY);
        assert!(h2.coupling.demoted_count() > 0 && h2.dense.demoted_count() > 0);
        let bytes = h2.to_bytes();
        let back = H2Matrix::from_bytes(&bytes).unwrap();
        assert_eq!(back.memory_bytes(), h2.memory_bytes());
        assert_eq!(back.basis, h2.basis);
        for (a, b) in [(&h2.coupling, &back.coupling), (&h2.dense, &back.dense)] {
            assert_eq!(a.pairs, b.pairs);
            for i in 0..a.len() {
                assert_eq!(a.precision_of(i), b.precision_of(i));
            }
        }
        let mut d = h2.to_dense();
        d.axpy(-1.0, &back.to_dense());
        assert_eq!(d.norm_max(), 0.0);
        assert_eq!(back.to_bytes(), bytes);
        // A diagonal block tagged f32 is not a valid store.
        let mut w = Vec::new();
        for v in [1, 3, 3] {
            write_usize(&mut w, v).unwrap();
        }
        let one = Mat32::from_vec(1, 1, vec![1.0]);
        write_stored(&mut w, StoredMat::F32(&one)).unwrap();
        assert!(read_block_store(&mut &w[..], StoreLayout::Symmetric, VERSION).is_err());
        // An f32-tagged basis loads as its promoted values.
        let basis32 = Mat32::demote(h2.basis[h2.tree.level(h2.tree.leaf_level()).start].rf());
        let mut w = Vec::new();
        write_usize(&mut w, 1).unwrap();
        write_stored(&mut w, StoredMat::F32(&basis32)).unwrap();
        let read = read_basis_section(&mut &w[..], VERSION).unwrap();
        assert_eq!(read, vec![basis32.promote()]);
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        assert!(H2Matrix::from_bytes(b"not a file").is_err());
        let h2 = sample_h2(200, 903);
        let bytes = h2.to_bytes();
        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(H2Matrix::from_bytes(&bad).is_err());
        // Truncated payload.
        assert!(H2Matrix::from_bytes(&bytes[..bytes.len() / 2]).is_err());
        // Wrong version.
        let mut bad = bytes.clone();
        bad[4] = 99;
        assert!(H2Matrix::from_bytes(&bad).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let h2 = sample_h2(300, 904);
        let path = std::env::temp_dir().join("h2sketch_io_test.h2");
        {
            let mut f = std::fs::File::create(&path).unwrap();
            h2.write_to(&mut f).unwrap();
        }
        let mut f = std::fs::File::open(&path).unwrap();
        let back = H2Matrix::read_from(&mut f).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(h2.rank_range(), back.rank_range());
        let mut d = h2.to_dense();
        d.axpy(-1.0, &back.to_dense());
        assert_eq!(d.norm_max(), 0.0);
    }

    #[test]
    fn weak_partition_roundtrip() {
        let pts = h2_tree::uniform_cube(300, 905);
        let tree = Arc::new(ClusterTree::build(&pts, 32));
        let part = Arc::new(Partition::build(&tree, Admissibility::Weak));
        let km = KernelMatrix::new(ExponentialKernel { l: 2.0 }, tree.points.clone());
        let cfg = DirectConfig {
            tol: 1e-8,
            n_proxy: 200,
            max_rank: 128,
            seed: 9,
        };
        let h2 = direct_construct(&km, tree, part, &cfg);
        let back = H2Matrix::from_bytes(&h2.to_bytes()).unwrap();
        assert!(matches!(back.partition.rule, Admissibility::Weak));
        let mut d = h2.to_dense();
        d.axpy(-1.0, &back.to_dense());
        assert_eq!(d.norm_max(), 0.0);
    }
}
