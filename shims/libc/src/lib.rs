#![warn(missing_docs)]
// C-style identifiers, matching the crates.io `libc` names exactly so the
// two crates are drop-in interchangeable.
#![allow(
    non_camel_case_types,
    non_upper_case_globals,
    non_snake_case,
    clippy::upper_case_acronyms
)]

//! Offline stand-in for the crates.io `libc` crate.
//!
//! The build environment is offline, so — like the `rayon`/`proptest`/
//! `criterion` shims next door — this crate declares, by hand, exactly the
//! slice of the C library the workspace needs: the virtual-memory calls
//! behind the memory-mapped graph store (`parcc_graph::mmap`). Nothing
//! links against anything new; `std` already pulls in the system libc, and
//! these are plain `extern "C"` declarations resolved from it. Swap for
//! the crates.io `libc` when network is available.
//!
//! Only the POSIX surface used by the store is exposed: `mmap`/`munmap`,
//! the paging advice calls (`madvise`, `posix_fadvise`), the residency
//! probe (`mincore`), and `sysconf(_SC_PAGESIZE)`. Constants carry the
//! Linux values (the primary target); the handful that differ on other
//! unixes are `cfg`-split below.

/// Opaque C `void`.
pub type c_void = core::ffi::c_void;
/// C `int`.
pub type c_int = i32;
/// C `size_t`.
pub type size_t = usize;
/// C `off_t` (LP64).
pub type off_t = i64;
/// C `long`.
pub type c_long = i64;
/// POSIX `pid_t` (Linux/LP64). `0` names the calling thread in the
/// scheduling calls below.
pub type pid_t = i32;

/// glibc `cpu_set_t`: a fixed 1024-bit CPU mask (128 bytes), matching the
/// glibc ABI layout exactly. Use [`CPU_SET`]/[`CPU_ISSET`] to manipulate it.
#[repr(C)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct cpu_set_t {
    bits: [u64; 16],
}

/// `CPU_ZERO`: a cleared CPU mask.
#[must_use]
pub fn CPU_ZERO() -> cpu_set_t {
    cpu_set_t::default()
}

/// `CPU_SET`: mark `cpu` in the mask. CPUs past the 1024-bit mask are
/// ignored (same as the glibc macro on an overflowing index).
pub fn CPU_SET(cpu: usize, set: &mut cpu_set_t) {
    if cpu < 1024 {
        set.bits[cpu / 64] |= 1u64 << (cpu % 64);
    }
}

/// `CPU_ISSET`: whether `cpu` is marked in the mask.
#[must_use]
pub fn CPU_ISSET(cpu: usize, set: &cpu_set_t) -> bool {
    cpu < 1024 && set.bits[cpu / 64] & (1u64 << (cpu % 64)) != 0
}

/// `PROT_READ`: pages may be read.
pub const PROT_READ: c_int = 1;
/// `MAP_SHARED`: share the mapping with the page cache (read-only here).
pub const MAP_SHARED: c_int = 1;
/// `MAP_PRIVATE`: copy-on-write mapping.
pub const MAP_PRIVATE: c_int = 2;
/// `mmap` failure sentinel (`(void *) -1`).
pub const MAP_FAILED: *mut c_void = -1isize as *mut c_void;

/// `MADV_SEQUENTIAL`: expect sequential page references.
pub const MADV_SEQUENTIAL: c_int = 2;
/// `MADV_DONTNEED`: the range is not needed; drop resident pages.
pub const MADV_DONTNEED: c_int = 4;

/// `POSIX_FADV_DONTNEED` (Linux): drop cached file pages for the range.
pub const POSIX_FADV_DONTNEED: c_int = 4;

/// `sysconf` name for the VM page size.
#[cfg(target_os = "linux")]
pub const _SC_PAGESIZE: c_int = 30;
/// `sysconf` name for the VM page size (BSD/macOS value).
#[cfg(not(target_os = "linux"))]
pub const _SC_PAGESIZE: c_int = 29;

#[cfg(unix)]
extern "C" {
    /// POSIX `mmap(2)`.
    pub fn mmap(
        addr: *mut c_void,
        len: size_t,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: off_t,
    ) -> *mut c_void;

    /// POSIX `munmap(2)`.
    pub fn munmap(addr: *mut c_void, len: size_t) -> c_int;

    /// POSIX `madvise(2)`.
    pub fn madvise(addr: *mut c_void, len: size_t, advice: c_int) -> c_int;

    /// `mincore(2)`: one status byte per page, bit 0 = resident.
    pub fn mincore(addr: *mut c_void, len: size_t, vec: *mut u8) -> c_int;

    /// POSIX `sysconf(3)`.
    pub fn sysconf(name: c_int) -> c_long;
}

#[cfg(target_os = "linux")]
extern "C" {
    /// `posix_fadvise(2)` — Linux-only here (absent on macOS).
    pub fn posix_fadvise(fd: c_int, offset: off_t, len: off_t, advice: c_int) -> c_int;

    /// `sched_setaffinity(2)` — pin a thread (`pid == 0` names the caller)
    /// to the CPUs marked in `mask`. Linux-only; perfbench pins its client
    /// thread with it.
    pub fn sched_setaffinity(pid: pid_t, cpusetsize: size_t, mask: *const cpu_set_t) -> c_int;

    /// `sched_getaffinity(2)` — read the calling thread's CPU mask.
    pub fn sched_getaffinity(pid: pid_t, cpusetsize: size_t, mask: *mut cpu_set_t) -> c_int;
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    #[test]
    fn page_size_is_a_sane_power_of_two() {
        // SAFETY: sysconf is always safe to call with a valid name.
        let page = unsafe { sysconf(_SC_PAGESIZE) };
        assert!(page >= 4096, "page size {page}");
        assert!(
            page.count_ones() == 1,
            "page size {page} not a power of two"
        );
    }

    #[test]
    fn cpu_set_bit_ops() {
        let mut set = CPU_ZERO();
        assert!(!CPU_ISSET(0, &set));
        CPU_SET(0, &mut set);
        CPU_SET(63, &mut set);
        CPU_SET(64, &mut set);
        CPU_SET(1023, &mut set);
        CPU_SET(5000, &mut set); // out of range: ignored
        for cpu in [0, 63, 64, 1023] {
            assert!(CPU_ISSET(cpu, &set), "cpu {cpu}");
        }
        assert!(!CPU_ISSET(1, &set));
        assert!(!CPU_ISSET(5000, &set));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn affinity_roundtrip_to_current_mask() {
        let mut cur = CPU_ZERO();
        // SAFETY: valid pointer to a full-size mask; pid 0 is the caller.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<cpu_set_t>(), &mut cur) };
        assert_eq!(rc, 0);
        assert!((0..1024).any(|c| CPU_ISSET(c, &cur)));
        // Re-applying the current mask must be accepted.
        // SAFETY: same valid mask, now passed read-only.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<cpu_set_t>(), &cur) };
        assert_eq!(rc, 0);
    }

    #[test]
    fn mmap_roundtrip_anonymous_file() {
        use std::io::Write;
        use std::os::unix::io::AsRawFd;
        let path = std::env::temp_dir().join(format!("libc-shim-{}.bin", std::process::id()));
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(&[7u8; 4096]).unwrap();
        f.sync_all().unwrap();
        let f = std::fs::File::open(&path).unwrap();
        // SAFETY: mapping a freshly written 4096-byte file read-only; fd is
        // valid for the duration of the call.
        let p = unsafe {
            mmap(
                std::ptr::null_mut(),
                4096,
                PROT_READ,
                MAP_SHARED,
                f.as_raw_fd(),
                0,
            )
        };
        assert_ne!(p, MAP_FAILED);
        // SAFETY: p maps 4096 readable bytes we just wrote.
        let first = unsafe { *(p as *const u8) };
        assert_eq!(first, 7);
        // SAFETY: p was returned by mmap with this exact length.
        unsafe {
            assert_eq!(madvise(p, 4096, MADV_SEQUENTIAL), 0);
            assert_eq!(munmap(p, 4096), 0);
        }
        let _ = std::fs::remove_file(&path);
    }
}
