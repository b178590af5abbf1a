//! Interned strings for the names the CMIF pipeline threads everywhere.
//!
//! Channel names, node names, descriptor keys and attribute identifiers are
//! *identical* across every layer of the system — the scheduler's timeline
//! entries, the pipeline's storyboard lines and the distributed store's
//! placement keys all repeat the handful of names a document declares. The
//! paper's own economics (cheap local computation, scarce interconnect)
//! argue against paying an allocation and a copy every time such a name
//! crosses a layer boundary; [`Symbol`] makes the name a `Copy` `u32`
//! instead.
//!
//! # Design
//!
//! * One **global pool**, sharded into `SHARD_COUNT` locks keyed by the
//!   string's hash, so concurrent interning from worker threads contends
//!   only when two threads intern into the same shard at the same moment.
//! * Interned strings are **leaked** (`Box::leak`): `Symbol::as_str`
//!   returns `&'static str` with no lifetime plumbing — resolution takes a
//!   brief shard *read* lock, released before the text is handed out.
//!   The pool only ever grows — see the "lifetime/leak policy" note in the
//!   README. Documents contribute a bounded vocabulary (names, not
//!   content), so the leak is proportional to the number of *distinct*
//!   names ever seen, not to the number of documents processed.
//! * `Eq`/`Hash`/`Ord` compare the **id**, not the text: map lookups keyed
//!   by `Symbol` are integer comparisons. Ordering is therefore the intern
//!   order, not the lexicographic one — code that renders human-readable
//!   listings sorts by [`Symbol::as_str`] explicitly.
//! * Ids encode their shard in the low bits, so resolving id → text needs
//!   no global table: `shard = id % SHARD_COUNT`, `index = id / SHARD_COUNT`.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, PoisonError, RwLock};

/// Number of lock shards in the global pool. A power of two so the shard of
/// an id is a mask away.
const SHARD_COUNT: usize = 16;

/// One shard of the global pool: text → id for interning, id → text for
/// resolution. Strings are leaked on first intern so resolution can hand
/// out `&'static str` without holding the lock.
#[derive(Default)]
struct Shard {
    by_text: HashMap<&'static str, u32>,
    by_index: Vec<&'static str>,
}

fn pool() -> &'static [RwLock<Shard>; SHARD_COUNT] {
    static POOL: OnceLock<[RwLock<Shard>; SHARD_COUNT]> = OnceLock::new();
    POOL.get_or_init(|| std::array::from_fn(|_| RwLock::new(Shard::default())))
}

/// The single intern body shared by [`Symbol::intern`] and
/// [`Symbol::from_owned`]: probe under the shard's write lock, leak only on
/// a genuine first sighting. `Cow::Owned` input moves its buffer into the
/// leak instead of copying.
fn intern_cow(text: Cow<'_, str>) -> Symbol {
    let shard_index = shard_of(&text);
    let mut shard = pool()[shard_index]
        .write()
        .unwrap_or_else(PoisonError::into_inner);
    if let Some(&id) = shard.by_text.get(text.as_ref()) {
        return Symbol(id);
    }
    let leaked: &'static str = Box::leak(text.into_owned().into_boxed_str());
    let index = shard.by_index.len() as u32;
    let id = index * SHARD_COUNT as u32 + shard_index as u32;
    shard.by_index.push(leaked);
    shard.by_text.insert(leaked, id);
    Symbol(id)
}

/// FNV-1a over the string bytes; only used to pick a shard, so it needs to
/// be fast and stable, not cryptographic.
fn shard_of(text: &str) -> usize {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in text.as_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash as usize) & (SHARD_COUNT - 1)
}

/// An interned string: a `Copy` handle into the global pool.
///
/// Two `Symbol`s are equal exactly when they intern the same text, so
/// equality, hashing and map lookups are integer operations. The text is
/// recovered with [`Symbol::as_str`] (a `&'static str`, valid forever).
///
/// ```
/// use cmif_core::symbol::Symbol;
///
/// let a = Symbol::intern("audio");
/// let b = Symbol::intern("audio");
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "audio");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    /// Interns a string, returning its canonical symbol. The first intern
    /// of a given text leaks one copy of it; later interns of equal text
    /// are a hash lookup.
    pub fn intern(text: &str) -> Symbol {
        intern_cow(Cow::Borrowed(text))
    }

    /// Interns an owned string without copying it when it is new to the
    /// pool (the `String`'s own buffer is leaked).
    pub fn from_owned(text: String) -> Symbol {
        intern_cow(Cow::Owned(text))
    }

    /// Looks a string up **without** interning it: `Some` when the text is
    /// already pooled, `None` otherwise. Use this on query paths (map
    /// lookups keyed by caller-supplied text) so misses cannot grow the
    /// pool. Takes only a shard read lock — concurrent lookups never
    /// serialize against each other.
    pub fn lookup(text: &str) -> Option<Symbol> {
        let shard = pool()[shard_of(text)]
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        shard.by_text.get(text).map(|&id| Symbol(id))
    }

    /// The interned text. Resolution is two integer ops under a brief shard
    /// *read* lock (readers never block each other; only a first-sighting
    /// intern takes the write side); the returned reference is `'static`
    /// (the pool never frees), so no lock outlives the call.
    pub fn as_str(self) -> &'static str {
        let shard_index = self.0 as usize & (SHARD_COUNT - 1);
        let index = self.0 as usize / SHARD_COUNT;
        let shard = pool()[shard_index]
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        shard.by_index[index]
    }

    /// The raw pool id (stable within a process, meaningless across runs).
    pub fn id(self) -> u32 {
        self.0
    }

    /// Length of the interned text in bytes.
    pub fn len(self) -> usize {
        self.as_str().len()
    }

    /// True when the interned text is empty.
    pub fn is_empty(self) -> bool {
        self.as_str().is_empty()
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `pad`, not `write_str`: width/alignment specs must work on
        // symbols exactly as they do on the text they intern.
        f.pad(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(text: &str) -> Symbol {
        Symbol::intern(text)
    }
}

impl From<&String> for Symbol {
    fn from(text: &String) -> Symbol {
        Symbol::intern(text)
    }
}

impl From<String> for Symbol {
    fn from(text: String) -> Symbol {
        Symbol::from_owned(text)
    }
}

impl From<Cow<'_, str>> for Symbol {
    fn from(text: Cow<'_, str>) -> Symbol {
        match text {
            Cow::Borrowed(s) => Symbol::intern(s),
            Cow::Owned(s) => Symbol::from_owned(s),
        }
    }
}

impl From<Symbol> for String {
    fn from(symbol: Symbol) -> String {
        symbol.as_str().to_string()
    }
}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<Symbol> for str {
    fn eq(&self, other: &Symbol) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Symbol> for &str {
    fn eq(&self, other: &Symbol) -> bool {
        *self == other.as_str()
    }
}

impl AsRef<str> for Symbol {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::Barrier;
    use std::thread;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::intern("news");
        let b = Symbol::intern("news");
        let c = Symbol::from_owned("news".to_string());
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(a.as_str(), "news");
        assert_eq!(a.id(), b.id());
    }

    #[test]
    fn distinct_texts_get_distinct_ids() {
        let a = Symbol::intern("symbol-test-left");
        let b = Symbol::intern("symbol-test-right");
        assert_ne!(a, b);
        assert_ne!(a.id(), b.id());
        assert_eq!(a.as_str(), "symbol-test-left");
        assert_eq!(b.as_str(), "symbol-test-right");
    }

    #[test]
    fn lookup_does_not_intern() {
        assert!(Symbol::lookup("symbol-test-never-interned-xyzzy").is_none());
        let s = Symbol::intern("symbol-test-looked-up");
        assert_eq!(Symbol::lookup("symbol-test-looked-up"), Some(s));
    }

    #[test]
    fn empty_and_unicode_round_trip() {
        for text in ["", "über-channel", "видео", "📺", "(unassigned)"] {
            let s = Symbol::intern(text);
            assert_eq!(s.as_str(), text);
            assert_eq!(s.len(), text.len());
            assert_eq!(s.is_empty(), text.is_empty());
        }
    }

    #[test]
    fn comparisons_against_str_work_both_ways() {
        let s = Symbol::intern("caption");
        assert_eq!(s, "caption");
        assert_eq!("caption", s);
        assert_ne!(s, "label");
        assert_eq!(s.to_string(), "caption");
        assert_eq!(format!("{s:?}"), "Symbol(\"caption\")");
    }

    #[test]
    fn concurrent_intern_of_one_text_yields_one_id() {
        const THREADS: usize = 8;
        const ROUNDS: usize = 50;
        for round in 0..ROUNDS {
            let text = format!("symbol-race-{round}");
            let barrier = Barrier::new(THREADS);
            let ids: BTreeSet<u32> = thread::scope(|scope| {
                let handles: Vec<_> = (0..THREADS)
                    .map(|_| {
                        scope.spawn(|| {
                            barrier.wait();
                            Symbol::intern(&text).id()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert_eq!(ids.len(), 1, "racing interns of {text:?} split the id");
            // The winning id resolves back to the text, and nothing was lost.
            assert_eq!(Symbol::lookup(&text).map(|s| s.id()), ids.first().copied());
        }
    }

    #[test]
    fn concurrent_distinct_interns_lose_nothing() {
        const THREADS: usize = 8;
        let texts: Vec<Vec<String>> = (0..THREADS)
            .map(|t| (0..64).map(|i| format!("symbol-bulk-{t}-{i}")).collect())
            .collect();
        thread::scope(|scope| {
            for batch in &texts {
                scope.spawn(move || {
                    for text in batch {
                        Symbol::intern(text);
                    }
                });
            }
        });
        let mut ids = BTreeSet::new();
        for batch in &texts {
            for text in batch {
                let s = Symbol::lookup(text).expect("symbol was lost");
                assert_eq!(s.as_str(), text);
                ids.insert(s.id());
            }
        }
        assert_eq!(ids.len(), THREADS * 64, "duplicate ids were handed out");
    }
}
