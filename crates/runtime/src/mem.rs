//! Sandboxed process memory with W^X region permissions.
//!
//! The MCFI runtime "enforces the invariant that no memory regions are
//! both writable and executable at the same time" (paper §4). The
//! sandbox models the low `[0, 4 GiB)` region the instrumentation masks
//! writes into; in this reproduction its backing store is a smaller
//! configurable buffer, with every access bounds- and permission-checked.

use core::cell::{Cell, RefCell};
use core::fmt;
use std::sync::Arc;

/// Granularity of dirty tracking and of snapshot sharing.
const PAGE_SIZE: usize = 4096;
const PAGE_SHIFT: u32 = PAGE_SIZE.trailing_zeros();

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The image digest: the page hashes and the region table folded into
/// one word. Folding a page hash is one xor-multiply, a bijection of
/// the running state, so changing any single page hash changes the
/// digest.
fn fold_digest(hashes: &[u64], regions: &[Region]) -> u64 {
    let mut h = FNV_OFFSET;
    for &ph in hashes {
        h = (h ^ ph).wrapping_mul(FNV_PRIME);
    }
    for r in regions {
        h = fnv(h, &r.start.to_le_bytes());
        h = fnv(h, &r.end.to_le_bytes());
        h = fnv(
            h,
            &[match r.perm {
                Perm::R => 0,
                Perm::Rw => 1,
                Perm::Rx => 2,
            }],
        );
    }
    h
}

/// Region permissions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Perm {
    /// Readable only.
    R,
    /// Readable and writable (never executable).
    Rw,
    /// Readable and executable (never writable).
    Rx,
}

impl Perm {
    /// Whether data writes are allowed.
    pub fn writable(self) -> bool {
        matches!(self, Perm::Rw)
    }

    /// Whether instruction fetch is allowed.
    pub fn executable(self) -> bool {
        matches!(self, Perm::Rx)
    }
}

/// A permissioned address range `[start, end)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Region {
    /// Inclusive start.
    pub start: u64,
    /// Exclusive end.
    pub end: u64,
    /// Permission.
    pub perm: Perm,
}

/// A memory fault.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemFault {
    /// Access outside any mapped region.
    Unmapped {
        /// Faulting address.
        addr: u64,
    },
    /// Write to a non-writable region.
    WriteProtected {
        /// Faulting address.
        addr: u64,
    },
    /// Instruction fetch from a non-executable region.
    ExecProtected {
        /// Faulting address.
        addr: u64,
    },
    /// The requested mapping would be writable and executable.
    WxViolation,
    /// The backing store is exhausted.
    OutOfMemory,
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemFault::Unmapped { addr } => write!(f, "unmapped access at {addr:#x}"),
            MemFault::WriteProtected { addr } => write!(f, "write to protected {addr:#x}"),
            MemFault::ExecProtected { addr } => write!(f, "execute from non-code {addr:#x}"),
            MemFault::WxViolation => write!(f, "mapping would be writable and executable"),
            MemFault::OutOfMemory => write!(f, "sandbox memory exhausted"),
        }
    }
}

impl std::error::Error for MemFault {}

/// The sandboxed memory image.
///
/// Beside the flat backing store the sandbox keeps a page cache for
/// cheap snapshots: one shared copy and one FNV hash per 4 KiB page,
/// as of the last [`Sandbox::snapshot`] or [`Sandbox::restore`], plus
/// a dirty mark per page. Every mutation of the backing store marks the
/// pages it starts on or covers, so a page whose mark and whose
/// predecessor's mark are clear still equals its cached copy (debug
/// builds check this on every snapshot), and a snapshot re-copies and
/// rehashes only marked pages and any page after one whose first bytes
/// changed.
#[derive(Debug)]
pub struct Sandbox {
    bytes: Vec<u8>,
    /// One mark per page: written since the page cache last matched it.
    /// The write barrier is one unconditional store per guest write.
    dirty: Box<[Cell<bool>]>,
    /// Behind a `RefCell` so `snapshot` keeps taking `&self`.
    cache: RefCell<PageCache>,
    regions: Vec<Region>,
    /// Code-visibility generation: bumped by every operation that can
    /// change what an instruction fetch observes — mapping or
    /// reprotecting regions, loader image writes, and raw mutable
    /// access. Ordinary `write8`/`write64` do *not* bump it: W^X
    /// guarantees they can never touch executable bytes, so cached
    /// decodings stay valid across them. Consumers (the translated
    /// tier) compare this against the generation they were built at.
    generation: u64,
    /// Index of the region that served the last data access. Data
    /// traffic clusters on the stack, so this short-circuits the linear
    /// region scan almost every time. Regions are only ever appended
    /// (never removed, never resized), so the hint can go stale —
    /// costing one full scan — but never wrong.
    data_hint: Cell<usize>,
}

/// How far a `write64` can spill past the page it starts on.
const SPILL: usize = 7;

/// Takes (and clears) the dirty marks, yielding for each page whether it
/// was marked and whether the page before it was. A `write64` marks only
/// the page it starts on and may spill [`SPILL`] bytes into the next, so
/// a page after a marked one may differ from its cached copy in its
/// first bytes. Checking those at snapshot time keeps the write barrier
/// at one store per write.
fn take_marks(dirty: &[Cell<bool>]) -> impl Iterator<Item = (bool, bool)> + '_ {
    let mut prev = false;
    dirty.iter().map(move |d| {
        let marked = d.replace(false);
        (marked, core::mem::replace(&mut prev, marked))
    })
}

/// Per-page copies and hashes shared with the snapshots taken from them.
#[derive(Debug)]
struct PageCache {
    pages: Vec<Arc<[u8]>>,
    hashes: Vec<u64>,
}

/// The byte range of page `i` in a backing store of `size` bytes (the
/// last page is short when `size` is not a multiple of the page size).
fn page_range(i: usize, size: usize) -> core::ops::Range<usize> {
    let start = i << PAGE_SHIFT;
    start..size.min(start + PAGE_SIZE)
}

impl Sandbox {
    /// Creates a sandbox backed by `size` bytes (all initially unmapped).
    pub fn new(size: usize) -> Self {
        // Every page starts as one shared zero page (a short tail page
        // gets its own), so a fresh sandbox hashes each length once.
        let npages = size.div_ceil(PAGE_SIZE);
        let full = size / PAGE_SIZE;
        let zero: Arc<[u8]> = Arc::from(vec![0u8; PAGE_SIZE]);
        let zero_hash = fnv(FNV_OFFSET, &zero);
        let mut pages = vec![zero; full];
        let mut hashes = vec![zero_hash; full];
        if npages > full {
            let tail = vec![0u8; size - full * PAGE_SIZE];
            hashes.push(fnv(FNV_OFFSET, &tail));
            pages.push(Arc::from(tail));
        }
        Sandbox {
            bytes: vec![0; size],
            dirty: (0..npages).map(|_| Cell::new(false)).collect(),
            cache: RefCell::new(PageCache { pages, hashes }),
            regions: Vec::new(),
            generation: 0,
            data_hint: Cell::new(usize::MAX),
        }
    }

    /// The current code-visibility generation (see the field docs).
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Total backing size.
    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    /// Maps `[start, start+len)` with `perm`.
    ///
    /// # Errors
    ///
    /// Fails if the range exceeds the backing store or overlaps an
    /// existing region.
    pub fn map(&mut self, start: u64, len: u64, perm: Perm) -> Result<(), MemFault> {
        let end = start.checked_add(len).ok_or(MemFault::OutOfMemory)?;
        if end > self.bytes.len() as u64 {
            return Err(MemFault::OutOfMemory);
        }
        if self.regions.iter().any(|r| start < r.end && r.start < end) {
            return Err(MemFault::Unmapped { addr: start });
        }
        self.regions.push(Region { start, end, perm });
        self.generation += 1;
        Ok(())
    }

    /// Changes the permission of an exactly matching region, enforcing
    /// W^X (this is the `mprotect` interposition check of §7 — a region
    /// can never become writable and executable).
    ///
    /// # Errors
    ///
    /// Fails if no region matches exactly.
    pub fn protect(&mut self, start: u64, perm: Perm) -> Result<(), MemFault> {
        let r = self
            .regions
            .iter_mut()
            .find(|r| r.start == start)
            .ok_or(MemFault::Unmapped { addr: start })?;
        r.perm = perm;
        self.generation += 1;
        Ok(())
    }

    /// The region containing `addr`.
    pub fn region_of(&self, addr: u64) -> Option<Region> {
        self.regions.iter().copied().find(|r| r.start <= addr && addr < r.end)
    }

    /// All regions.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Region lookup through a last-hit hint cell.
    #[inline]
    fn find_region(&self, addr: u64, hint: &Cell<usize>) -> Option<Region> {
        if let Some(r) = self.regions.get(hint.get()) {
            if r.start <= addr && addr < r.end {
                return Some(*r);
            }
        }
        let idx = self.regions.iter().position(|r| r.start <= addr && addr < r.end)?;
        hint.set(idx);
        Some(self.regions[idx])
    }

    #[inline]
    fn check(&self, addr: u64, len: u64, write: bool) -> Result<(), MemFault> {
        let end = addr.checked_add(len).ok_or(MemFault::Unmapped { addr })?;
        let r = self.find_region(addr, &self.data_hint).ok_or(MemFault::Unmapped { addr })?;
        if end > r.end {
            return Err(MemFault::Unmapped { addr: r.end });
        }
        if write && !r.perm.writable() {
            return Err(MemFault::WriteProtected { addr });
        }
        Ok(())
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns a fault on unmapped access.
    #[inline]
    pub fn read8(&self, addr: u64) -> Result<u8, MemFault> {
        self.check(addr, 1, false)?;
        Ok(self.bytes[addr as usize])
    }

    /// Reads a little-endian u64.
    ///
    /// # Errors
    ///
    /// Returns a fault on unmapped access.
    #[inline]
    pub fn read64(&self, addr: u64) -> Result<u64, MemFault> {
        self.check(addr, 8, false)?;
        let a = addr as usize;
        Ok(u64::from_le_bytes(self.bytes[a..a + 8].try_into().expect("8 bytes")))
    }

    /// Writes one byte (permission-checked).
    ///
    /// # Errors
    ///
    /// Returns a fault on unmapped or protected access.
    #[inline]
    pub fn write8(&mut self, addr: u64, v: u8) -> Result<(), MemFault> {
        self.check(addr, 1, true)?;
        self.bytes[addr as usize] = v;
        // `check` bounded `addr`, so the mark exists; `get` keeps a panic
        // path out of this inlined hot path.
        if let Some(d) = self.dirty.get(addr as usize >> PAGE_SHIFT) {
            d.set(true);
        }
        Ok(())
    }

    /// Writes a little-endian u64 (permission-checked).
    ///
    /// # Errors
    ///
    /// Returns a fault on unmapped or protected access.
    #[inline]
    pub fn write64(&mut self, addr: u64, v: u64) -> Result<(), MemFault> {
        self.check(addr, 8, true)?;
        let a = addr as usize;
        self.bytes[a..a + 8].copy_from_slice(&v.to_le_bytes());
        // One store even when the write straddles into the next page:
        // see `take_marks`.
        if let Some(d) = self.dirty.get(a >> PAGE_SHIFT) {
            d.set(true);
        }
        Ok(())
    }

    /// Verifies `addr` may be fetched as code.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault::ExecProtected`] for data addresses.
    pub fn check_exec(&self, addr: u64) -> Result<(), MemFault> {
        let r = self.region_of(addr).ok_or(MemFault::Unmapped { addr })?;
        if !r.perm.executable() {
            return Err(MemFault::ExecProtected { addr });
        }
        Ok(())
    }

    /// Copies bytes in, bypassing permissions — loader-only (the runtime
    /// writes code while the region is still `Rw`, then flips it to `Rx`).
    pub fn load_image(&mut self, addr: u64, bytes: &[u8]) -> Result<(), MemFault> {
        let end = addr as usize + bytes.len();
        if end > self.bytes.len() {
            return Err(MemFault::OutOfMemory);
        }
        self.bytes[addr as usize..end].copy_from_slice(bytes);
        self.mark_dirty(addr as usize, end);
        self.generation += 1;
        Ok(())
    }

    /// Reads a NUL-terminated string (for syscall arguments).
    ///
    /// # Errors
    ///
    /// Returns a fault on unmapped access or strings longer than 4 KiB.
    pub fn read_cstr(&self, addr: u64) -> Result<String, MemFault> {
        let mut out = Vec::new();
        let mut a = addr;
        loop {
            let b = self.read8(a)?;
            if b == 0 {
                break;
            }
            out.push(b);
            a += 1;
            if out.len() > 4096 {
                return Err(MemFault::Unmapped { addr: a });
            }
        }
        Ok(String::from_utf8_lossy(&out).into_owned())
    }

    /// Marks every page overlapping `[start, end)` dirty.
    fn mark_dirty(&self, start: usize, end: usize) {
        if start < end {
            for d in &self.dirty[start >> PAGE_SHIFT..=(end - 1) >> PAGE_SHIFT] {
                d.set(true);
            }
        }
    }

    /// Captures the memory image and region table, for checkpoints and
    /// transactional operations (a dynamic load that may have to be
    /// undone).
    ///
    /// Only dirty pages are copied and rehashed into the page cache (and
    /// a page after a dirty one whose first bytes changed, see
    /// `take_marks`); every other page is shared with the cache and with
    /// earlier snapshots.
    pub fn snapshot(&self) -> SandboxSnapshot {
        let size = self.bytes.len();
        let mut cache = self.cache.borrow_mut();
        debug_assert!(
            (0..self.dirty.len()).all(|i| {
                let from = if i > 0 && self.dirty[i - 1].get() { SPILL } else { 0 };
                let range = page_range(i, size);
                self.dirty[i].get()
                    || cache.pages[i].get(from..) == self.bytes.get(range.start + from..range.end)
            }),
            "a sandbox page changed without a dirty mark"
        );
        let mut copied = 0;
        for (i, (marked, spilled)) in take_marks(&self.dirty).enumerate() {
            if !marked && !spilled {
                continue;
            }
            let page = &self.bytes[page_range(i, size)];
            // A page reached only by a spill can differ only in its head.
            let head = SPILL.min(page.len());
            if !marked && cache.pages[i][..head] == page[..head] {
                continue;
            }
            cache.pages[i] = Arc::from(page);
            cache.hashes[i] = fnv(FNV_OFFSET, page);
            copied += 1;
        }
        SandboxSnapshot {
            pages: cache.pages.clone(),
            hashes: cache.hashes.clone(),
            regions: self.regions.clone(),
            copied,
        }
    }

    /// Restores a [`Sandbox::snapshot`], discarding every mapping and
    /// byte written since it was taken.
    ///
    /// Copies back only the pages that are dirty or whose cached copy
    /// is not the snapshot's, then adopts the snapshot's pages and
    /// hashes as the page cache.
    ///
    /// The generation counter is *not* restored: it keeps counting
    /// forward, so translated blocks built against the discarded state
    /// can never validate against the restored one.
    pub fn restore(&mut self, snap: &SandboxSnapshot) {
        let size = self.bytes.len();
        let cache = self.cache.get_mut();
        for ((i, page), (marked, spilled)) in snap.pages.iter().enumerate().zip(take_marks(&self.dirty)) {
            if marked || spilled || !Arc::ptr_eq(&cache.pages[i], page) {
                self.bytes[page_range(i, size)].copy_from_slice(page);
            }
        }
        cache.pages.clone_from(&snap.pages);
        cache.hashes.clone_from(&snap.hashes);
        self.regions.clone_from(&snap.regions);
        self.generation += 1;
        self.data_hint.set(usize::MAX);
    }

    /// Raw view of the backing store (used by the attacker thread in the
    /// threat model: "the attacker can corrupt writable memory between
    /// any two instructions", §4).
    pub fn raw_mut(&mut self) -> &mut [u8] {
        // The caller may rewrite any byte, executable ones included, so
        // every cached decoding and every cached page is suspect
        // afterwards.
        self.generation += 1;
        self.mark_dirty(0, self.bytes.len());
        &mut self.bytes
    }

    /// Raw read-only view.
    pub fn raw(&self) -> &[u8] {
        &self.bytes
    }
}

/// A sandbox's memory image, as shared pages with their hashes, and
/// its region table (see [`Sandbox::snapshot`]). Pages the sandbox did
/// not write between two snapshots are the same allocation in both.
#[derive(Clone, Debug)]
pub struct SandboxSnapshot {
    pages: Vec<Arc<[u8]>>,
    /// Page hashes as cached at capture.
    hashes: Vec<u64>,
    regions: Vec<Region>,
    /// Pages copied out of the sandbox by this capture.
    copied: usize,
}

impl SandboxSnapshot {
    /// The digest as recorded at capture: the cached page hashes and the
    /// region table folded together, so clean pages are not rehashed.
    pub(crate) fn recorded_digest(&self) -> u64 {
        fold_digest(&self.hashes, &self.regions)
    }

    /// A content digest for integrity-checking stored snapshots, the
    /// verifying counterpart of `SandboxSnapshot::recorded_digest`:
    /// every page hash is recomputed (FNV-1a) from the stored bytes
    /// before folding. A checkpoint records the digest at capture time
    /// and verifies it before restoring, so a corrupted checkpoint is
    /// detected instead of silently resuming from garbage.
    pub fn digest(&self) -> u64 {
        let hashes: Vec<u64> = self.pages.iter().map(|p| fnv(FNV_OFFSET, p)).collect();
        fold_digest(&hashes, &self.regions)
    }

    /// Pages this snapshot copied out of the sandbox at capture (the
    /// rest are shared with earlier snapshots).
    pub(crate) fn pages_copied(&self) -> usize {
        self.copied
    }

    /// Overwrites one byte of a stored page in place, leaving its
    /// recorded hash stale (test use: models storage corruption).
    #[cfg(test)]
    pub(crate) fn corrupt_byte(&mut self, addr: usize) {
        let page = &mut self.pages[addr >> PAGE_SHIFT];
        let mut bytes = page.to_vec();
        bytes[addr % PAGE_SIZE] ^= 0xff;
        *page = Arc::from(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_restore_undoes_mappings_and_writes() {
        let mut m = Sandbox::new(0x1000);
        m.map(0, 0x100, Perm::Rw).unwrap();
        m.write64(0x10, 7).unwrap();
        let snap = m.snapshot();
        let g_snap = m.generation();
        m.write64(0x10, 99).unwrap();
        m.map(0x200, 0x100, Perm::Rx).unwrap();
        m.load_image(0x200, &[1, 2, 3]).unwrap();
        m.restore(&snap);
        assert_eq!(m.read64(0x10).unwrap(), 7, "bytes roll back");
        assert!(m.region_of(0x200).is_none(), "mappings roll back");
        assert!(
            m.generation() > g_snap,
            "generation must keep counting so stale caches rebuild"
        );
    }

    #[test]
    fn mapping_and_rw_round_trip() {
        let mut m = Sandbox::new(0x1000);
        m.map(0x100, 0x100, Perm::Rw).unwrap();
        m.write64(0x100, 0xdead_beef).unwrap();
        assert_eq!(m.read64(0x100).unwrap(), 0xdead_beef);
        m.write8(0x1ff, 7).unwrap();
        assert_eq!(m.read8(0x1ff).unwrap(), 7);
    }

    #[test]
    fn unmapped_access_faults() {
        let m = Sandbox::new(0x1000);
        assert!(matches!(m.read8(0x10), Err(MemFault::Unmapped { .. })));
    }

    #[test]
    fn writes_to_code_fault() {
        let mut m = Sandbox::new(0x1000);
        m.map(0, 0x100, Perm::Rx).unwrap();
        assert!(matches!(m.write8(0x10, 1), Err(MemFault::WriteProtected { .. })));
        assert!(m.check_exec(0x10).is_ok());
    }

    #[test]
    fn execution_from_data_faults() {
        let mut m = Sandbox::new(0x1000);
        m.map(0, 0x100, Perm::Rw).unwrap();
        assert!(matches!(m.check_exec(0x10), Err(MemFault::ExecProtected { .. })));
    }

    #[test]
    fn regions_cannot_overlap() {
        let mut m = Sandbox::new(0x1000);
        m.map(0, 0x100, Perm::Rw).unwrap();
        assert!(m.map(0x80, 0x100, Perm::R).is_err());
    }

    #[test]
    fn access_straddling_region_end_faults() {
        let mut m = Sandbox::new(0x1000);
        m.map(0, 0x10, Perm::Rw).unwrap();
        assert!(m.read64(0xc).is_err());
        assert!(m.write64(0xc, 1).is_err());
    }

    #[test]
    fn protect_flips_permissions() {
        let mut m = Sandbox::new(0x1000);
        m.map(0, 0x100, Perm::Rw).unwrap();
        m.load_image(0, &[1, 2, 3]).unwrap();
        m.protect(0, Perm::Rx).unwrap();
        assert!(m.check_exec(0).is_ok());
        assert!(m.write8(0, 9).is_err());
    }

    #[test]
    fn cstr_reading() {
        let mut m = Sandbox::new(0x1000);
        m.map(0, 0x100, Perm::Rw).unwrap();
        m.load_image(0x10, b"hello\0").unwrap();
        assert_eq!(m.read_cstr(0x10).unwrap(), "hello");
    }

    #[test]
    fn generation_tracks_code_visible_changes() {
        let mut m = Sandbox::new(0x1000);
        let g0 = m.generation();
        m.map(0, 0x100, Perm::Rw).unwrap();
        let g1 = m.generation();
        assert!(g1 > g0, "map must bump the generation");
        m.load_image(0, &[1, 2, 3]).unwrap();
        let g2 = m.generation();
        assert!(g2 > g1, "load_image must bump the generation");
        m.protect(0, Perm::Rx).unwrap();
        let g3 = m.generation();
        assert!(g3 > g2, "protect must bump the generation");
        let _ = m.raw_mut();
        let g4 = m.generation();
        assert!(g4 > g3, "raw_mut must bump the generation");

        // Data writes cannot touch executable bytes (W^X), so they do
        // not invalidate cached decodings.
        m.map(0x200, 0x100, Perm::Rw).unwrap();
        let g5 = m.generation();
        m.write64(0x200, 42).unwrap();
        m.write8(0x208, 7).unwrap();
        assert_eq!(m.generation(), g5, "data writes must not bump the generation");
    }

    /// Model test: a `Sandbox` and a flat byte vector driven through the
    /// same random operations stay byte-identical, whatever mix of
    /// snapshots and restores of older snapshots the incremental page
    /// cache goes through.
    #[test]
    fn incremental_snapshots_match_a_flat_model() {
        const SIZE: usize = 5 * PAGE_SIZE + 1234; // a short tail page
        for seed in 1..=4u64 {
            let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut rand = move |n: usize| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % n as u64) as usize
            };
            let mut m = Sandbox::new(SIZE);
            let mut model = vec![0u8; SIZE];
            m.map(0, 2 * PAGE_SIZE as u64 + 100, Perm::Rw).unwrap();
            m.map(3 * PAGE_SIZE as u64, 2 * PAGE_SIZE as u64 + 1000, Perm::Rw).unwrap();
            let mut retained: Vec<(SandboxSnapshot, Vec<u8>, Vec<Region>)> = Vec::new();
            for step in 0..3000 {
                let ctx = format!("seed {seed} step {step}");
                match rand(9) {
                    0 => {
                        let a = rand(SIZE);
                        let v = rand(256) as u8;
                        if m.write8(a as u64, v).is_ok() {
                            model[a] = v;
                        }
                    }
                    1 => {
                        // Straddle a page boundary by 1..=7 bytes.
                        let a = (1 + rand(SIZE / PAGE_SIZE)) * PAGE_SIZE - 1 - rand(7);
                        let v = (rand(1 << 30) as u64) << 17 | 0xa5;
                        if m.write64(a as u64, v).is_ok() {
                            model[a..a + 8].copy_from_slice(&v.to_le_bytes());
                        }
                    }
                    2 => {
                        let a = rand(SIZE);
                        let bytes: Vec<u8> =
                            (0..rand(3 * PAGE_SIZE)).map(|_| rand(256) as u8).collect();
                        if m.load_image(a as u64, &bytes).is_ok() {
                            model[a..a + bytes.len()].copy_from_slice(&bytes);
                        }
                    }
                    3 => {
                        let raw = m.raw_mut();
                        for _ in 0..rand(4) {
                            let a = rand(SIZE);
                            raw[a] = raw[a].wrapping_add(1);
                            model[a] = model[a].wrapping_add(1);
                        }
                    }
                    4 => {
                        let start = rand(SIZE) as u64;
                        let _ = m.map(start, rand(2 * PAGE_SIZE) as u64 + 1, Perm::Rw);
                    }
                    5 => {
                        if let Some(r) = m.regions().get(rand(m.regions().len().max(1))).copied() {
                            let perm = [Perm::R, Perm::Rw, Perm::Rx][rand(3)];
                            m.protect(r.start, perm).unwrap();
                        }
                    }
                    6 | 7 => {
                        let snap = m.snapshot();
                        assert_eq!(snap.digest(), snap.recorded_digest(), "{ctx}");
                        let again = m.snapshot();
                        assert_eq!(again.pages_copied(), 0, "{ctx}: nothing dirtied in between");
                        if retained.len() == 6 {
                            retained.remove(rand(6));
                        }
                        retained.push((snap, model.clone(), m.regions().to_vec()));
                    }
                    _ => {
                        if !retained.is_empty() {
                            let (snap, bytes, regions) = &retained[rand(retained.len())];
                            m.restore(snap);
                            model.clone_from(bytes);
                            assert_eq!(m.regions(), &regions[..], "{ctx}");
                        }
                    }
                }
                assert!(m.raw() == &model[..], "{ctx}: sandbox diverged from the model");
            }
            for (snap, bytes, _) in &retained {
                let ctx = format!("seed {seed}: a shared page changed");
                assert_eq!(snap.digest(), snap.recorded_digest(), "{ctx}");
                m.restore(snap);
                assert!(m.raw() == &bytes[..], "seed {seed}: late restore diverged");
            }
        }
    }

    #[test]
    fn out_of_backing_mapping_fails() {
        let mut m = Sandbox::new(0x100);
        assert!(matches!(m.map(0x80, 0x100, Perm::Rw), Err(MemFault::OutOfMemory)));
    }
}
