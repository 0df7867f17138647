//! [`Line`]: a value on a pair of cache lines of its own.
//!
//! A word that one process writes on every begin, alloc, free or commit
//! must not share a line with words another process loads on its read
//! path: every such write would pull the line away from the reader, which
//! then fetches it back, although the two never touch a common base
//! object. `Line<T>` is aligned to 128 bytes, not 64, because the
//! adjacent-line prefetcher fetches lines in 128-byte pairs.
//!
//! Over-alignment is contagious: a struct that embeds a `Line` becomes
//! 128-aligned itself, and so does every struct that embeds that one.
//! An owner that is embedded elsewhere therefore holds its `Line` boxed,
//! so the alignment is the heap block's, not the owner's.

use std::ops::Deref;

/// `T` alone on a 128-byte-aligned line pair (see module docs).
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct Line<T>(pub T);

impl<T> Deref for Line<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.0
    }
}

/// Whether `word` starts a line pair and lies outside `owner`'s bytes:
/// what the layout tests assert of every boxed [`Line`]'s word.
pub fn isolated_from<T, O>(word: &T, owner: &O) -> bool {
    let w = word as *const T as usize;
    let o = owner as *const O as usize;
    w % 128 == 0 && (w + std::mem::size_of::<T>() <= o || w >= o + std::mem::size_of::<O>())
}
