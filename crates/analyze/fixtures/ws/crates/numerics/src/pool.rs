//! unsafe-audit fixtures: every `unsafe` is a finding, SAFETY comment or not.

#[allow(unsafe_code)]
pub mod inner {
    /// Reads through a raw pointer.
    ///
    /// # Safety
    ///
    /// Caller guarantees `p` is valid for reads.
    pub unsafe fn read(p: *const u8) -> u8 {
        // SAFETY: contract delegated to the caller above.
        unsafe { *p }
    }

    pub fn bad(p: *const u8) -> u8 {
        //
        //
        //
        unsafe { *p }
    }
}
