//! A proper O(1) LRU cache: hash map + intrusive doubly-linked list over a
//! slab of entries. Capacity is in pages (the paper notes page size plays
//! little role in proxy benefit, so neither does byte-accounting here).

use ddr_sim::{FastHashMap, ItemId};

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Entry {
    item: ItemId,
    prev: u32,
    next: u32,
}

/// Fixed-capacity LRU set of [`ItemId`]s.
///
/// ```
/// use ddr_webcache::LruCache;
/// use ddr_sim::ItemId;
///
/// let mut cache = LruCache::new(2);
/// cache.insert(ItemId(1));
/// cache.insert(ItemId(2));
/// assert!(cache.touch(ItemId(1)));            // 1 becomes most recent
/// assert_eq!(cache.insert(ItemId(3)), Some(ItemId(2))); // 2 evicted
/// ```
#[derive(Debug, Clone)]
pub struct LruCache {
    map: FastHashMap<ItemId, u32>,
    slab: Vec<Entry>,
    free: Vec<u32>,
    head: u32, // most recently used
    tail: u32, // least recently used
    capacity: usize,
}

impl LruCache {
    /// An empty cache holding at most `capacity` items.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU capacity must be positive");
        LruCache {
            map: ddr_sim::hash::fast_map(),
            slab: Vec::with_capacity(capacity.min(1 << 20)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Number of cached items.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether `item` is cached, *without* touching recency (probes from
    /// other proxies shouldn't distort the local LRU order).
    pub fn peek(&self, item: ItemId) -> bool {
        self.map.contains_key(&item)
    }

    /// Look up `item`; a hit moves it to most-recently-used.
    pub fn touch(&mut self, item: ItemId) -> bool {
        match self.map.get(&item) {
            Some(&idx) => {
                self.unlink(idx);
                self.push_front(idx);
                true
            }
            None => false,
        }
    }

    /// Insert `item` as most-recently-used, evicting the LRU item if full.
    /// Returns the evicted item, if any. Inserting a present item just
    /// refreshes its recency.
    pub fn insert(&mut self, item: ItemId) -> Option<ItemId> {
        if self.touch(item) {
            return None;
        }
        let evicted = if self.map.len() == self.capacity {
            let tail = self.tail;
            debug_assert_ne!(tail, NIL);
            let old = self.slab[tail as usize].item;
            self.unlink(tail);
            self.map.remove(&old);
            self.free.push(tail);
            Some(old)
        } else {
            None
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.slab[i as usize].item = item;
                i
            }
            None => {
                self.slab.push(Entry {
                    item,
                    prev: NIL,
                    next: NIL,
                });
                (self.slab.len() - 1) as u32
            }
        };
        self.push_front(idx);
        self.map.insert(item, idx);
        evicted
    }

    /// Iterate over cached items, most recent first.
    pub fn iter(&self) -> LruIter<'_> {
        LruIter {
            cache: self,
            cursor: self.head,
        }
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let e = &self.slab[idx as usize];
            (e.prev, e.next)
        };
        if prev != NIL {
            self.slab[prev as usize].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.slab[next as usize].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        self.slab[idx as usize].prev = NIL;
        self.slab[idx as usize].next = NIL;
    }

    fn push_front(&mut self, idx: u32) {
        self.slab[idx as usize].prev = NIL;
        self.slab[idx as usize].next = self.head;
        if self.head != NIL {
            self.slab[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

/// Iterator over cache contents, MRU → LRU.
pub struct LruIter<'a> {
    cache: &'a LruCache,
    cursor: u32,
}

impl Iterator for LruIter<'_> {
    type Item = ItemId;
    fn next(&mut self) -> Option<ItemId> {
        if self.cursor == NIL {
            return None;
        }
        let e = &self.cache.slab[self.cursor as usize];
        self.cursor = e.next;
        Some(e.item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(cache: &LruCache) -> Vec<u32> {
        cache.iter().map(|i| i.0).collect()
    }

    #[test]
    fn insert_and_lookup() {
        let mut c = LruCache::new(3);
        assert_eq!(c.insert(ItemId(1)), None);
        assert_eq!(c.insert(ItemId(2)), None);
        assert!(c.peek(ItemId(1)));
        assert!(!c.peek(ItemId(9)));
        assert_eq!(c.len(), 2);
        assert_eq!(ids(&c), vec![2, 1]);
    }

    #[test]
    fn evicts_lru_order() {
        let mut c = LruCache::new(2);
        c.insert(ItemId(1));
        c.insert(ItemId(2));
        assert_eq!(c.insert(ItemId(3)), Some(ItemId(1)));
        assert!(!c.peek(ItemId(1)));
        assert_eq!(ids(&c), vec![3, 2]);
    }

    #[test]
    fn touch_refreshes_recency() {
        let mut c = LruCache::new(2);
        c.insert(ItemId(1));
        c.insert(ItemId(2));
        assert!(c.touch(ItemId(1))); // 1 becomes MRU
        assert_eq!(c.insert(ItemId(3)), Some(ItemId(2)));
        assert!(c.peek(ItemId(1)));
        assert_eq!(ids(&c), vec![3, 1]);
    }

    #[test]
    fn peek_does_not_refresh() {
        let mut c = LruCache::new(2);
        c.insert(ItemId(1));
        c.insert(ItemId(2));
        assert!(c.peek(ItemId(1))); // no recency change: 1 is still LRU
        assert_eq!(c.insert(ItemId(3)), Some(ItemId(1)));
    }

    #[test]
    fn reinsert_refreshes_without_eviction() {
        let mut c = LruCache::new(2);
        c.insert(ItemId(1));
        c.insert(ItemId(2));
        assert_eq!(c.insert(ItemId(1)), None);
        assert_eq!(c.len(), 2);
        assert_eq!(ids(&c), vec![1, 2]);
    }

    #[test]
    fn single_slot_cache() {
        let mut c = LruCache::new(1);
        assert_eq!(c.insert(ItemId(1)), None);
        assert_eq!(c.insert(ItemId(2)), Some(ItemId(1)));
        assert_eq!(c.len(), 1);
        assert_eq!(ids(&c), vec![2]);
    }

    #[test]
    fn slab_reuse_after_many_evictions() {
        let mut c = LruCache::new(4);
        for i in 0..1_000u32 {
            c.insert(ItemId(i));
        }
        assert_eq!(c.len(), 4);
        assert_eq!(ids(&c), vec![999, 998, 997, 996]);
        // slab should not have grown past capacity + O(1)
        assert!(c.slab.len() <= 5, "slab leaked: {}", c.slab.len());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = LruCache::new(0);
    }
}
