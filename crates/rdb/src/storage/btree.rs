//! Copy-on-write B-tree keyed on row id (slot position), one per table.
//!
//! Leaf cells map a `u64` key to a row payload (the WAL row codec's
//! bytes); payloads above [`MAX_INLINE`] spill into a chain of overflow
//! pages. Interior cells are `(separator, child)` pairs where `child`
//! covers keys `<= separator`; the page header's `next` pointer is the
//! rightmost child. Leaves carry no sibling pointers — scans descend the
//! tree — so shadow paging never has to chase and rewrite a sibling
//! chain when a page relocates.
//!
//! Every mutating descent goes through [`PageHeap::writable`]: pages
//! belonging to the last durable checkpoint are relocated on first touch
//! and parents along the path are re-pointed, so the previous
//! checkpoint's tree stays intact on disk until the meta rename commits
//! the new one (see `storage::pool`).

use super::pager::{Page, PageKind, PAGE_HDR, PAGE_SIZE, SLOT_ENTRY};
use super::pool::PageHeap;
use crate::error::{DbError, Result};

/// Largest payload stored inline in a leaf cell; anything bigger goes to
/// an overflow chain. Sized so a leaf always holds at least three cells.
pub const MAX_INLINE: usize = 1000;

/// Payload bytes per overflow page (one cell filling the page).
const OVERFLOW_CHUNK: usize = PAGE_SIZE - PAGE_HDR - SLOT_ENTRY;

const TAG_INLINE: u8 = 0;
const TAG_OVERFLOW: u8 = 1;

fn corrupt(what: &str) -> DbError {
    DbError::Storage(format!("b-tree corrupt: {what}"))
}

fn cell_key(cell: &[u8]) -> u64 {
    u64::from_le_bytes(cell[..8].try_into().expect("cell has a key"))
}

/// Build a leaf cell for `key`/`val`, spilling to overflow pages first
/// when the payload is too large to inline.
fn leaf_cell(h: &mut PageHeap, key: u64, val: &[u8]) -> Result<Vec<u8>> {
    let mut cell = Vec::with_capacity(17 + val.len().min(MAX_INLINE));
    cell.extend_from_slice(&key.to_le_bytes());
    if val.len() <= MAX_INLINE {
        cell.push(TAG_INLINE);
        cell.extend_from_slice(&(val.len() as u32).to_le_bytes());
        cell.extend_from_slice(val);
        return Ok(cell);
    }
    // Build the chain back to front so each page's `next` is known.
    let mut next = 0u64;
    for chunk in val.chunks(OVERFLOW_CHUNK).rev() {
        next = h.alloc_with(PageKind::Overflow, &[chunk.to_vec()], next)?;
    }
    cell.push(TAG_OVERFLOW);
    cell.extend_from_slice(&(val.len() as u32).to_le_bytes());
    cell.extend_from_slice(&next.to_le_bytes());
    Ok(cell)
}

/// Read the payload a leaf cell points at (inline or overflow chain).
fn read_value(h: &mut PageHeap, cell: &[u8]) -> Result<Vec<u8>> {
    let tag = *cell.get(8).ok_or_else(|| corrupt("short leaf cell"))?;
    let len = u32::from_le_bytes(
        cell.get(9..13)
            .ok_or_else(|| corrupt("short leaf cell"))?
            .try_into()
            .unwrap(),
    ) as usize;
    match tag {
        TAG_INLINE => {
            let bytes = cell
                .get(13..13 + len)
                .ok_or_else(|| corrupt("short inline"))?;
            Ok(bytes.to_vec())
        }
        TAG_OVERFLOW => {
            let mut at = u64::from_le_bytes(
                cell.get(13..21)
                    .ok_or_else(|| corrupt("short overflow ref"))?
                    .try_into()
                    .unwrap(),
            );
            let mut out = Vec::with_capacity(len);
            while at != 0 {
                let page = h.view(at)?;
                if page.kind() != PageKind::Overflow {
                    return Err(corrupt("overflow chain points at non-overflow page"));
                }
                out.extend_from_slice(page.cell(0));
                at = page.next();
            }
            if out.len() != len {
                return Err(corrupt("overflow chain length mismatch"));
            }
            Ok(out)
        }
        _ => Err(corrupt("bad leaf cell tag")),
    }
}

/// Free any overflow chain a leaf cell owns (before dropping the cell).
fn free_value(h: &mut PageHeap, cell: &[u8]) -> Result<()> {
    if cell.get(8) != Some(&TAG_OVERFLOW) {
        return Ok(());
    }
    let mut at = u64::from_le_bytes(
        cell.get(13..21)
            .ok_or_else(|| corrupt("short overflow ref"))?
            .try_into()
            .unwrap(),
    );
    while at != 0 {
        let next = h.view(at)?.next();
        h.free(at);
        at = next;
    }
    Ok(())
}

fn interior_cell(key: u64, child: u64) -> Vec<u8> {
    let mut cell = Vec::with_capacity(16);
    cell.extend_from_slice(&key.to_le_bytes());
    cell.extend_from_slice(&child.to_le_bytes());
    cell
}

fn interior_child(cell: &[u8]) -> u64 {
    u64::from_le_bytes(cell[8..16].try_into().expect("interior cell has a child"))
}

fn install_cells(
    h: &mut PageHeap,
    id: u64,
    kind: PageKind,
    cells: &[Vec<u8>],
    next: u64,
) -> Result<()> {
    let mut page = Page::new(kind);
    page.set_next(next);
    assert!(page.set_cells(cells), "cells exceed page capacity");
    h.install(id, page)
}

struct PutOut {
    /// The page's id after any copy-on-write relocation.
    id: u64,
    /// `(separator, right page)` when the page split.
    split: Option<(u64, u64)>,
}

/// Insert or replace `key → val`. Returns the (possibly new) root id.
pub fn bt_put(h: &mut PageHeap, root: u64, key: u64, val: &[u8]) -> Result<u64> {
    if root == 0 {
        let cell = leaf_cell(h, key, val)?;
        return h.alloc_with(PageKind::Leaf, &[cell], 0);
    }
    let out = put_rec(h, root, key, val)?;
    match out.split {
        None => Ok(out.id),
        Some((sep, right)) => {
            h.alloc_with(PageKind::Interior, &[interior_cell(sep, out.id)], right)
        }
    }
}

fn put_rec(h: &mut PageHeap, id: u64, key: u64, val: &[u8]) -> Result<PutOut> {
    let (id, page) = h.writable(id)?;
    match page.kind() {
        PageKind::Leaf => {
            let mut cells = page.cells();
            let cell = leaf_cell(h, key, val)?;
            match cells.binary_search_by_key(&key, |c| cell_key(c)) {
                Ok(i) => {
                    free_value(h, &cells[i])?;
                    cells[i] = cell;
                }
                Err(i) => cells.insert(i, cell),
            }
            if Page::used_by(&cells) <= PAGE_SIZE {
                install_cells(h, id, PageKind::Leaf, &cells, 0)?;
                return Ok(PutOut { id, split: None });
            }
            let right_cells = cells.split_off(cells.len() / 2);
            let sep = cell_key(cells.last().expect("left half non-empty"));
            install_cells(h, id, PageKind::Leaf, &cells, 0)?;
            let right = h.alloc_with(PageKind::Leaf, &right_cells, 0)?;
            Ok(PutOut {
                id,
                split: Some((sep, right)),
            })
        }
        PageKind::Interior => {
            let mut cells = page.cells();
            let mut next = page.next();
            let route = cells.iter().position(|c| cell_key(c) >= key);
            let child = match route {
                Some(i) => interior_child(&cells[i]),
                None => next,
            };
            let out = put_rec(h, child, key, val)?;
            match route {
                Some(i) => {
                    let k = cell_key(&cells[i]);
                    cells[i] = interior_cell(k, out.id);
                }
                None => next = out.id,
            }
            if let Some((sep, right)) = out.split {
                match route {
                    Some(i) => {
                        // The child covering keys <= k split: left half
                        // covers <= sep, right half the rest up to k.
                        let k = cell_key(&cells[i]);
                        cells[i] = interior_cell(sep, out.id);
                        cells.insert(i + 1, interior_cell(k, right));
                    }
                    None => {
                        cells.push(interior_cell(sep, out.id));
                        next = right;
                    }
                }
            }
            if Page::used_by(&cells) <= PAGE_SIZE {
                install_cells(h, id, PageKind::Interior, &cells, next)?;
                return Ok(PutOut { id, split: None });
            }
            let mut right_cells = cells.split_off(cells.len() / 2);
            // The promoted separator's child becomes the left page's
            // rightmost child.
            let promoted = right_cells.remove(0);
            let sep = cell_key(&promoted);
            let left_next = interior_child(&promoted);
            install_cells(h, id, PageKind::Interior, &cells, left_next)?;
            let right = h.alloc_with(PageKind::Interior, &right_cells, next)?;
            Ok(PutOut {
                id,
                split: Some((sep, right)),
            })
        }
        other => Err(corrupt(&format!("descent into {other:?} page"))),
    }
}

/// Remove `key` if present. Returns the (possibly new) root id; `0` when
/// the tree is now empty. Interior pages are not rebalanced — row-id
/// keys arrive mostly in append order, so sparse pages are rare and are
/// reclaimed wholesale when the table drops.
pub fn bt_delete(h: &mut PageHeap, root: u64, key: u64) -> Result<u64> {
    if root == 0 {
        return Ok(0);
    }
    let new_root = del_rec(h, root, key)?;
    // Collapse an emptied root leaf so a fully-cleared table returns to
    // the `root == 0` state.
    let page = h.view(new_root)?;
    if page.kind() == PageKind::Leaf && page.ncells() == 0 {
        h.free(new_root);
        return Ok(0);
    }
    Ok(new_root)
}

fn del_rec(h: &mut PageHeap, id: u64, key: u64) -> Result<u64> {
    let (id, page) = h.writable(id)?;
    match page.kind() {
        PageKind::Leaf => {
            let mut cells = page.cells();
            if let Ok(i) = cells.binary_search_by_key(&key, |c| cell_key(c)) {
                free_value(h, &cells[i])?;
                cells.remove(i);
            }
            install_cells(h, id, PageKind::Leaf, &cells, 0)?;
            Ok(id)
        }
        PageKind::Interior => {
            let mut cells = page.cells();
            let mut next = page.next();
            let route = cells.iter().position(|c| cell_key(c) >= key);
            let child = match route {
                Some(i) => interior_child(&cells[i]),
                None => next,
            };
            let new_child = del_rec(h, child, key)?;
            match route {
                Some(i) => {
                    let k = cell_key(&cells[i]);
                    cells[i] = interior_cell(k, new_child);
                }
                None => next = new_child,
            }
            install_cells(h, id, PageKind::Interior, &cells, next)?;
            Ok(id)
        }
        other => Err(corrupt(&format!("descent into {other:?} page"))),
    }
}

/// Collect every `key → payload` entry in ascending key order.
pub fn bt_scan(h: &mut PageHeap, root: u64) -> Result<Vec<(u64, Vec<u8>)>> {
    let mut out = Vec::new();
    if root != 0 {
        scan_rec(h, root, &mut out)?;
    }
    Ok(out)
}

fn scan_rec(h: &mut PageHeap, id: u64, out: &mut Vec<(u64, Vec<u8>)>) -> Result<()> {
    let page = h.view(id)?;
    match page.kind() {
        PageKind::Leaf => {
            let cells = page.cells();
            for cell in cells {
                let key = cell_key(&cell);
                let val = read_value(h, &cell)?;
                out.push((key, val));
            }
            Ok(())
        }
        PageKind::Interior => {
            let cells = page.cells();
            let next = page.next();
            for cell in cells {
                scan_rec(h, interior_child(&cell), out)?;
            }
            scan_rec(h, next, out)
        }
        other => Err(corrupt(&format!("scan into {other:?} page"))),
    }
}

/// Count the pages a tree occupies: every leaf and interior node plus
/// overflow-chain pages. Chain lengths are derived from the spilled
/// payload sizes recorded in the leaf cells, so the chains themselves
/// are never faulted into the buffer pool.
pub fn bt_page_count(h: &mut PageHeap, root: u64) -> Result<u64> {
    if root == 0 {
        return Ok(0);
    }
    count_rec(h, root)
}

fn count_rec(h: &mut PageHeap, id: u64) -> Result<u64> {
    let page = h.view(id)?;
    match page.kind() {
        PageKind::Leaf => {
            let mut n = 1u64;
            for cell in page.cells() {
                let tag = *cell.get(8).ok_or_else(|| corrupt("short leaf cell"))?;
                if tag == TAG_OVERFLOW {
                    let len = u32::from_le_bytes(
                        cell.get(9..13)
                            .ok_or_else(|| corrupt("short leaf cell"))?
                            .try_into()
                            .unwrap(),
                    ) as usize;
                    n += len.div_ceil(OVERFLOW_CHUNK) as u64;
                }
            }
            Ok(n)
        }
        PageKind::Interior => {
            let mut n = 1u64;
            for cell in page.cells() {
                n += count_rec(h, interior_child(&cell))?;
            }
            n += count_rec(h, page.next())?;
            Ok(n)
        }
        other => Err(corrupt(&format!("page count into {other:?} page"))),
    }
}

/// Free an entire tree (overflow chains included) — `DROP TABLE`.
pub fn bt_free(h: &mut PageHeap, root: u64) -> Result<()> {
    if root == 0 {
        return Ok(());
    }
    let page = h.view(root)?;
    match page.kind() {
        PageKind::Leaf => {
            let cells = page.cells();
            for cell in cells {
                free_value(h, &cell)?;
            }
        }
        PageKind::Interior => {
            let cells = page.cells();
            let next = page.next();
            for cell in cells {
                bt_free(h, interior_child(&cell))?;
            }
            bt_free(h, next)?;
        }
        _ => {}
    }
    h.free(root);
    Ok(())
}
