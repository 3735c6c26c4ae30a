//! Logical-to-physical page mapping with validity tracking.
//!
//! The map is two flat `u32` tables — 8 bytes per logical/physical page
//! pair, about 0.9 MB for a 1024-block × 128-page die, which fits L2 — so
//! a die's whole map can stay cached while the write path and garbage
//! collection walk it. A thread that cycles through several dies (an
//! engine pool lane serving 8 of them walks about 7.2 MB of maps) cannot
//! keep them cached; [`PageMap::pretouch`] lets it prefetch the lines of
//! requests it knows are coming:
//!
//! * `l2p[lpa]` is the physical page packed as `block * pages_per_block +
//!   page`;
//! * `p2l[block * pages_per_block + page]` is the die-local logical page
//!   stored there.
//!
//! `u32::MAX` marks an unmapped logical page and an invalid physical page
//! alike, which is why a die is limited to `u32::MAX - 1` physical pages
//! ([`crate::SsdConfig::check`] turns a larger one away). The packing is
//! private to this module: the interface speaks [`Ppa`] and `u64` logical
//! pages, and a checkpoint stores `(block, page)` pairs.

/// Physical page address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ppa {
    /// Block index.
    pub block: u32,
    /// Page index within the block.
    pub page: u32,
}

/// `l2p` entry of an unmapped logical page; `p2l` entry of an invalid
/// physical page.
const NONE: u32 = u32::MAX;

/// Most physical pages one map can address: packed addresses and die-local
/// logical pages must both stay clear of [`NONE`].
pub(crate) const MAX_PHYSICAL_PAGES: u64 = NONE as u64 - 1;

/// Asks the core to bring `x`'s cache line into L1 without waiting for it.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[inline(always)]
fn prefetch(x: &u32) {
    use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
    // SAFETY: a prefetch is a hint: it never faults, not even on an invalid
    // address, and changes no program state. The pointer comes from a live
    // `&u32` all the same, and SSE (which `_mm_prefetch` needs) is part of
    // the x86_64 baseline, so the instruction exists on every target this
    // compiles for.
    unsafe { _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(x).cast()) }
}

/// Elsewhere the look-ahead does nothing: safe Rust has no prefetch, and
/// an ordinary load in its place stalls on the miss it was meant to hide.
#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
fn prefetch(_: &u32) {}

/// Page-level mapping table: logical page ↔ physical page, plus per-block
/// valid-page counts for garbage collection.
#[derive(Debug, Clone)]
pub struct PageMap {
    /// Packed physical page of each logical page ([`NONE`] = unmapped).
    l2p: Vec<u32>,
    /// Logical page held by each packed physical page ([`NONE`] = invalid).
    p2l: Vec<u32>,
    valid_count: Vec<u32>,
    pages_per_block: u32,
}

impl PageMap {
    /// Creates an empty map for `logical_pages` over `blocks` ×
    /// `pages_per_block` physical pages.
    ///
    /// # Panics
    ///
    /// Panics if the die is larger than the packed entries can address
    /// (more than `u32::MAX - 1` physical pages), or exports more logical
    /// pages than it has physical ones.
    pub(crate) fn new(logical_pages: u64, blocks: u32, pages_per_block: u32) -> Self {
        let physical = u64::from(blocks) * u64::from(pages_per_block);
        assert!(
            physical <= MAX_PHYSICAL_PAGES,
            "{physical} physical pages exceed the page map's {MAX_PHYSICAL_PAGES}"
        );
        assert!(logical_pages <= physical, "more logical pages than physical pages");
        Self {
            l2p: vec![NONE; logical_pages as usize],
            p2l: vec![NONE; physical as usize],
            valid_count: vec![0; blocks as usize],
            pages_per_block,
        }
    }

    fn pack(&self, ppa: Ppa) -> usize {
        // A page past the block's end would alias a slot of the next block.
        assert!(ppa.page < self.pages_per_block, "physical page {ppa:?} out of range");
        ppa.block as usize * self.pages_per_block as usize + ppa.page as usize
    }

    #[inline]
    fn unpack(&self, packed: u32) -> Ppa {
        Ppa { block: packed / self.pages_per_block, page: packed % self.pages_per_block }
    }

    /// Exported logical capacity in pages.
    pub fn logical_pages(&self) -> u64 {
        self.l2p.len() as u64
    }

    /// Current physical location of a logical page.
    pub fn lookup(&self, lpa: u64) -> Option<Ppa> {
        match self.l2p.get(lpa as usize) {
            Some(&packed) if packed != NONE => Some(self.unpack(packed)),
            _ => None,
        }
    }

    /// Logical owner of a physical page (if valid).
    pub(crate) fn owner(&self, ppa: Ppa) -> Option<u64> {
        match self.p2l[self.pack(ppa)] {
            NONE => None,
            lpa => Some(u64::from(lpa)),
        }
    }

    /// Prefetches the map lines two later requests will want — the `l2p`
    /// entry of `far` and the `p2l` entry `near` currently maps to — so that
    /// their cache misses overlap the caller's work in between instead of
    /// serialising with it. A prefetch does not wait for its line (an
    /// ordinary load that misses would stall the core right here); the one
    /// load left is `near`'s `l2p` entry, which the previous calls
    /// prefetched as their `far`. Returns nothing: an unmapped or
    /// out-of-range address is skipped, and no result may depend on a call.
    #[inline]
    pub(crate) fn pretouch(&self, far: u64, near: u64) {
        let entry = |lpa: u64| usize::try_from(lpa).ok().and_then(|lpa| self.l2p.get(lpa));
        if let Some(packed) = entry(far) {
            prefetch(packed);
        }
        // An unmapped page's `NONE` lies past the end of `p2l`.
        if let Some(owner) = entry(near).and_then(|&packed| self.p2l.get(packed as usize)) {
            prefetch(owner);
        }
    }

    /// Valid pages in a block.
    pub(crate) fn valid_count(&self, block: u32) -> u32 {
        self.valid_count[block as usize]
    }

    /// Valid pages of every block, indexed by block (what the GC victim
    /// scan walks).
    pub(crate) fn valid_counts(&self) -> &[u32] {
        &self.valid_count
    }

    /// Blocks currently holding valid data, in index order.
    pub(crate) fn valid_blocks(&self) -> impl Iterator<Item = u32> + '_ {
        (0u32..).zip(&self.valid_count).filter(|(_, &valid)| valid > 0).map(|(block, _)| block)
    }

    /// Installs a new mapping, invalidating the previous location if any.
    /// Returns the invalidated physical page.
    ///
    /// # Panics
    ///
    /// Panics if the target physical page is already valid (the FTL must
    /// never double-map).
    pub(crate) fn remap(&mut self, lpa: u64, ppa: Ppa) -> Option<Ppa> {
        let slot = self.pack(ppa);
        assert!(self.p2l[slot] == NONE, "physical page {ppa:?} already mapped");
        let old = std::mem::replace(&mut self.l2p[lpa as usize], slot as u32);
        self.p2l[slot] = lpa as u32;
        self.valid_count[ppa.block as usize] += 1;
        if old == NONE {
            return None;
        }
        let old_ppa = self.unpack(old);
        self.p2l[old as usize] = NONE;
        self.valid_count[old_ppa.block as usize] -= 1;
        Some(old_ppa)
    }

    /// Clears every mapping into `block` (called on erase). The logical
    /// pages must already have been moved; this only asserts emptiness.
    ///
    /// # Panics
    ///
    /// Panics if the block still holds valid pages.
    pub(crate) fn assert_block_empty(&self, block: u32) {
        assert_eq!(self.valid_count[block as usize], 0, "erasing block {block} with valid pages");
    }

    /// Pages per block (layout constant).
    pub fn pages_per_block(&self) -> u32 {
        self.pages_per_block
    }

    /// Serializes the map (checkpointing support). Only the l2p table is
    /// written: the reverse map and valid counts are derived mirrors and
    /// are rebuilt on restore, consistent by construction.
    pub fn encode_state(&self, w: &mut rd_flash::wire::Writer) {
        w.put_u64(self.l2p.len() as u64);
        for &packed in &self.l2p {
            if packed == NONE {
                w.put_bool(false);
                continue;
            }
            let ppa = self.unpack(packed);
            w.put_bool(true);
            w.put_u32(ppa.block);
            w.put_u32(ppa.page);
        }
    }

    /// Restores a map serialized by [`Self::encode_state`] into `self`,
    /// which must have been constructed with the same shape.
    ///
    /// # Errors
    ///
    /// Returns [`rd_flash::SnapError::Mismatch`] on shape disagreement, an
    /// out-of-range physical address, or a double-mapped physical page.
    pub(crate) fn restore_state(
        &mut self,
        r: &mut rd_flash::wire::Reader<'_>,
    ) -> Result<(), rd_flash::SnapError> {
        use rd_flash::SnapError;
        let n = r.get_u64()? as usize;
        if n != self.l2p.len() {
            return Err(SnapError::Mismatch(format!(
                "logical page count {n} != {}",
                self.l2p.len()
            )));
        }
        let blocks = self.valid_count.len();
        let mut l2p = Vec::with_capacity(n);
        let mut p2l = vec![NONE; self.p2l.len()];
        let mut valid_count = vec![0u32; blocks];
        for lpa in 0..n {
            if !r.get_bool()? {
                l2p.push(NONE);
                continue;
            }
            let ppa = Ppa { block: r.get_u32()?, page: r.get_u32()? };
            if ppa.block as usize >= blocks || ppa.page >= self.pages_per_block {
                return Err(SnapError::Mismatch(format!("ppa {ppa:?} out of range")));
            }
            let slot = self.pack(ppa);
            if p2l[slot] != NONE {
                return Err(SnapError::Mismatch(format!("ppa {ppa:?} double-mapped")));
            }
            p2l[slot] = lpa as u32;
            valid_count[ppa.block as usize] += 1;
            l2p.push(slot as u32);
        }
        self.l2p = l2p;
        self.p2l = p2l;
        self.valid_count = valid_count;
        Ok(())
    }

    /// Internal-consistency check: every l2p entry is mirrored in p2l and
    /// valid counts agree. Used by tests and debug assertions.
    pub fn check_consistency(&self) -> bool {
        let mut counts = vec![0u32; self.valid_count.len()];
        for (lpa, &packed) in self.l2p.iter().enumerate() {
            if packed != NONE {
                if self.p2l[packed as usize] != lpa as u32 {
                    return false;
                }
                counts[(packed / self.pages_per_block) as usize] += 1;
            }
        }
        counts == self.valid_count
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    impl PageMap {
        /// Valid `(page, lpa)` pairs of a block, collected into a list: what
        /// relocation walked before it asked [`PageMap::owner`] page by
        /// page. Kept as the reference the die's tests compare against.
        pub(crate) fn valid_pages(&self, block: u32) -> Vec<(u32, u64)> {
            (0..self.pages_per_block)
                .filter_map(|page| self.owner(Ppa { block, page }).map(|lpa| (page, lpa)))
                .collect()
        }
    }

    /// The checkpoint bytes of a map held as one `Option<Ppa>` per logical
    /// page, written the way the unpacked tables wrote them.
    pub(crate) fn encode_unpacked(l2p: &[Option<Ppa>]) -> Vec<u8> {
        let mut w = rd_flash::wire::Writer::new();
        w.put_u64(l2p.len() as u64);
        for entry in l2p {
            match entry {
                Some(ppa) => {
                    w.put_bool(true);
                    w.put_u32(ppa.block);
                    w.put_u32(ppa.page);
                }
                None => w.put_bool(false),
            }
        }
        w.into_bytes()
    }

    proptest! {
        /// The packed tables against a pair of hash maps under random
        /// remaps: same lookups, owners, valid counts and returned old
        /// locations; checkpoint bytes equal the model's written the old
        /// way, and restore into a fresh map as the same map.
        #[test]
        fn packed_tables_match_a_hash_map_model(
            blocks in 1u32..6,
            pages_per_block in 1u32..7,
            remaps in proptest::collection::vec(any::<u64>(), 0..80),
        ) {
            let physical = blocks * pages_per_block;
            let logical = u64::from(physical);
            let mut map = PageMap::new(logical, blocks, pages_per_block);
            let mut l2p: HashMap<u64, Ppa> = HashMap::new();
            let mut p2l: HashMap<Ppa, u64> = HashMap::new();
            for draw in remaps {
                let lpa = (draw >> 32) % logical;
                let slot = draw as u32 % physical;
                let ppa = Ppa { block: slot / pages_per_block, page: slot % pages_per_block };
                if p2l.contains_key(&ppa) {
                    continue; // the FTL never double-maps
                }
                let old = l2p.insert(lpa, ppa);
                if let Some(old) = old {
                    p2l.remove(&old);
                }
                p2l.insert(ppa, lpa);
                prop_assert_eq!(map.remap(lpa, ppa), old);
            }
            for lpa in 0..logical + 2 {
                prop_assert_eq!(map.lookup(lpa), l2p.get(&lpa).copied());
            }
            for block in 0..blocks {
                let owners: Vec<(u32, u64)> = (0..pages_per_block)
                    .filter_map(|page| p2l.get(&Ppa { block, page }).map(|&lpa| (page, lpa)))
                    .collect();
                prop_assert_eq!(map.valid_count(block) as usize, owners.len());
                prop_assert_eq!(map.valid_pages(block), owners);
            }
            prop_assert!(map.check_consistency());
            let mut w = rd_flash::wire::Writer::new();
            map.encode_state(&mut w);
            let bytes = w.into_bytes();
            let model: Vec<_> = (0..logical).map(|lpa| l2p.get(&lpa).copied()).collect();
            prop_assert_eq!(&bytes, &encode_unpacked(&model));
            let mut restored = PageMap::new(logical, blocks, pages_per_block);
            restored.restore_state(&mut rd_flash::wire::Reader::new(&bytes)).unwrap();
            prop_assert_eq!(restored.l2p, map.l2p);
            prop_assert_eq!(restored.p2l, map.p2l);
            prop_assert_eq!(restored.valid_count, map.valid_count);
        }
    }

    #[test]
    fn remap_moves_validity() {
        let mut map = PageMap::new(8, 4, 4);
        assert_eq!(map.remap(3, Ppa { block: 0, page: 0 }), None);
        assert_eq!(map.valid_count(0), 1);
        let old = map.remap(3, Ppa { block: 1, page: 2 });
        assert_eq!(old, Some(Ppa { block: 0, page: 0 }));
        assert_eq!(map.valid_count(0), 0);
        assert_eq!(map.valid_count(1), 1);
        assert_eq!(map.lookup(3), Some(Ppa { block: 1, page: 2 }));
        assert_eq!(map.owner(Ppa { block: 1, page: 2 }), Some(3));
        assert!(map.check_consistency());
    }

    #[test]
    #[should_panic(expected = "already mapped")]
    fn double_map_panics() {
        let mut map = PageMap::new(8, 4, 4);
        map.remap(1, Ppa { block: 0, page: 0 });
        map.remap(2, Ppa { block: 0, page: 0 });
    }

    #[test]
    fn valid_pages_enumeration() {
        let mut map = PageMap::new(8, 2, 4);
        map.remap(0, Ppa { block: 1, page: 3 });
        map.remap(5, Ppa { block: 1, page: 0 });
        let v = map.valid_pages(1);
        assert_eq!(v, vec![(0, 5), (3, 0)]);
        assert!(map.valid_pages(0).is_empty());
    }

    proptest! {
        /// The same over random maps: after random remaps (mapped, unmapped
        /// and moved pages), `pretouch` at random pairs of addresses drawn
        /// from past the end, the wide sentinel, the last page, an unmapped
        /// page and anywhere leaves the tables and counts as they were.
        #[test]
        fn pretouch_is_inert_over_random_maps(
            blocks in 1u32..6,
            pages_per_block in 1u32..7,
            remaps in proptest::collection::vec(any::<u64>(), 0..60),
            probes in proptest::collection::vec(any::<u64>(), 2..40),
        ) {
            let physical = blocks * pages_per_block;
            let logical = u64::from(physical);
            let mut map = PageMap::new(logical, blocks, pages_per_block);
            for draw in remaps {
                let slot = draw as u32 % physical;
                let ppa = Ppa { block: slot / pages_per_block, page: slot % pages_per_block };
                if map.owner(ppa).is_none() {
                    map.remap((draw >> 32) % logical, ppa);
                }
            }
            let unmapped = (0..logical).find(|&lpa| map.lookup(lpa).is_none()).unwrap_or(logical);
            let address = |draw: u64| match draw % 6 {
                0 => u64::MAX,
                1 => u64::MAX >> 1,
                2 => logical - 1,
                3 => unmapped,
                4 => (draw >> 3) % logical,
                _ => draw >> 3,
            };
            let before = (map.l2p.clone(), map.p2l.clone(), map.valid_count.clone());
            for pair in probes.windows(2) {
                map.pretouch(address(pair[0]), address(pair[1]));
            }
            prop_assert_eq!((map.l2p.clone(), map.p2l.clone(), map.valid_count.clone()), before);
            prop_assert!(map.check_consistency());
        }
    }

    /// `pretouch` takes `&self` and only prefetches: every address a request
    /// can carry — past the end, the engine's wide-address sentinel
    /// (2⁶³ − 1), unmapped, mapped — on an empty and on a full map leaves
    /// the map as it was.
    #[test]
    fn pretouch_is_inert_for_every_address() {
        let fresh = PageMap::new(8, 4, 4);
        let mut filled = PageMap::new(8, 4, 4);
        for lpa in 0..8 {
            filled.remap(lpa, Ppa { block: lpa as u32 / 4, page: lpa as u32 % 4 });
        }
        filled.remap(3, Ppa { block: 3, page: 3 });
        for map in [&fresh, &filled] {
            let before = (map.l2p.clone(), map.p2l.clone(), map.valid_count.clone());
            let addresses = [u64::MAX, u64::MAX >> 1, 8, 7, 3, 0];
            for far in addresses {
                for near in addresses {
                    map.pretouch(far, near);
                }
            }
            assert_eq!((map.l2p.clone(), map.p2l.clone(), map.valid_count.clone()), before);
            assert!(map.check_consistency());
        }
    }

    #[test]
    fn unknown_lookup_is_none() {
        let map = PageMap::new(4, 2, 2);
        assert_eq!(map.lookup(0), None);
        assert_eq!(map.lookup(99), None);
    }
}
