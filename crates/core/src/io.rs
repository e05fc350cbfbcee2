//! Binary serialization of a built HCD index.
//!
//! Rebuilding the hierarchy of a large graph is cheap but not free;
//! downstream index-based applications (influential-community or
//! attributed-community queries, §VII) want to build once and reload.
//! The format is a little-endian dump with a magic header, validated on
//! load.

use std::io::{Read, Write};

use hcd_graph::GraphError;

use crate::index::{Hcd, TreeNode, NO_NODE};

const MAGIC: &[u8; 8] = b"HCDIDX01";

/// Serializes the index.
pub fn write_hcd<W: Write>(hcd: &Hcd, mut w: W) -> Result<(), GraphError> {
    w.write_all(MAGIC)?;
    w.write_all(&(hcd.num_nodes() as u64).to_le_bytes())?;
    w.write_all(&(hcd.tids().len() as u64).to_le_bytes())?;
    for node in hcd.nodes() {
        w.write_all(&node.k.to_le_bytes())?;
        w.write_all(&node.parent.to_le_bytes())?;
        w.write_all(&(node.vertices.len() as u64).to_le_bytes())?;
        for &v in &node.vertices {
            w.write_all(&v.to_le_bytes())?;
        }
        // Children are reconstructed from parents on load.
    }
    for &t in hcd.tids() {
        w.write_all(&t.to_le_bytes())?;
    }
    w.flush()?;
    Ok(())
}

/// Deserializes an index written by [`write_hcd`], reconstructing the
/// children lists and validating internal consistency.
pub fn read_hcd<R: Read>(mut r: R) -> Result<Hcd, GraphError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(GraphError::Format("bad HCD index magic".into()));
    }
    let num_nodes = read_u64(&mut r)? as usize;
    let n = read_u64(&mut r)? as usize;
    let mut nodes = Vec::with_capacity(num_nodes);
    for _ in 0..num_nodes {
        let k = read_u32(&mut r)?;
        let parent = read_u32(&mut r)?;
        let len = read_u64(&mut r)? as usize;
        if len > n {
            return Err(GraphError::Format("node larger than graph".into()));
        }
        let mut vertices = Vec::with_capacity(len);
        for _ in 0..len {
            vertices.push(read_u32(&mut r)?);
        }
        nodes.push(TreeNode {
            k,
            vertices,
            parent,
            children: Vec::new(),
        });
    }
    // Rebuild children.
    for i in 0..nodes.len() {
        let p = nodes[i].parent;
        if p != NO_NODE {
            if p as usize >= nodes.len() {
                return Err(GraphError::Format("parent id out of range".into()));
            }
            nodes[p as usize].children.push(i as u32);
        }
    }
    let mut tid = Vec::with_capacity(n);
    for _ in 0..n {
        let t = read_u32(&mut r)?;
        if t != NO_NODE && t as usize >= nodes.len() {
            return Err(GraphError::Format("tid out of range".into()));
        }
        tid.push(t);
    }
    // Consistency: every vertex listed in its node.
    for (v, &t) in tid.iter().enumerate() {
        if t != NO_NODE && !nodes[t as usize].vertices.contains(&(v as u32)) {
            return Err(GraphError::Format(format!(
                "vertex {v} not present in its node"
            )));
        }
    }
    Ok(Hcd::from_parts(nodes, tid))
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, GraphError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, GraphError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phcd::try_phcd;
    use crate::testutil::figure1_graph;
    use hcd_decomp::core_decomposition;
    use hcd_par::Executor;

    #[test]
    fn roundtrip_preserves_index() {
        let g = figure1_graph();
        let cores = core_decomposition(&g);
        let hcd = try_phcd(&g, &cores, &Executor::sequential()).unwrap();
        let mut buf = Vec::new();
        write_hcd(&hcd, &mut buf).unwrap();
        let back = read_hcd(&buf[..]).unwrap();
        assert_eq!(hcd.nodes(), back.nodes());
        assert_eq!(hcd.tids(), back.tids());
        assert_eq!(hcd.roots(), back.roots());
    }

    #[test]
    fn rejects_bad_magic() {
        let buf = b"NOTANIDX________".to_vec();
        assert!(read_hcd(&buf[..]).is_err());
    }

    #[test]
    fn rejects_truncation() {
        let g = figure1_graph();
        let cores = core_decomposition(&g);
        let hcd = try_phcd(&g, &cores, &Executor::sequential()).unwrap();
        let mut buf = Vec::new();
        write_hcd(&hcd, &mut buf).unwrap();
        for cut in [9, buf.len() / 2, buf.len() - 2] {
            assert!(read_hcd(&buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn rejects_corrupted_tid() {
        let g = figure1_graph();
        let cores = core_decomposition(&g);
        let hcd = try_phcd(&g, &cores, &Executor::sequential()).unwrap();
        let mut buf = Vec::new();
        write_hcd(&hcd, &mut buf).unwrap();
        // Corrupt the final tid entry to a huge value.
        let len = buf.len();
        buf[len - 1] = 0x7F;
        assert!(read_hcd(&buf[..]).is_err());
    }

    #[test]
    fn empty_index_roundtrip() {
        let hcd = Hcd::from_parts(Vec::new(), Vec::new());
        let mut buf = Vec::new();
        write_hcd(&hcd, &mut buf).unwrap();
        let back = read_hcd(&buf[..]).unwrap();
        assert_eq!(back.num_nodes(), 0);
    }
}
