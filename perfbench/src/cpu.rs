//! CPU placement of the measuring thread. The CPUs of a shared host can run
//! at different speeds for minutes at a time; a single-threaded run that
//! stays on one of them reads fast or slow as a whole. Rotating the passes
//! over every allowed CPU gives each run the same mix.

/// The CPUs this thread may run on (empty where placement is unsupported).
pub fn allowed() -> Vec<usize> {
    let mut mask = [0u64; 16];
    if !sys::getaffinity(&mut mask) {
        return Vec::new();
    }
    (0..mask.len() * 64)
        .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .collect()
}

/// Moves the calling thread onto `cpu`; returns whether it moved.
pub fn pin(cpu: usize) -> bool {
    let mut mask = [0u64; 16];
    if cpu >= mask.len() * 64 {
        return false;
    }
    mask[cpu / 64] |= 1 << (cpu % 64);
    sys::setaffinity(&mask)
}

/// Lets the calling thread run on every CPU in `cpus` again.
pub fn release(cpus: &[usize]) {
    let mut mask = [0u64; 16];
    let bits = mask.len() * 64;
    for &c in cpus.iter().filter(|&&c| c < bits) {
        mask[c / 64] |= 1 << (c % 64);
    }
    if !cpus.is_empty() {
        sys::setaffinity(&mask);
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    const SCHED_SETAFFINITY: isize = 203;
    const SCHED_GETAFFINITY: isize = 204;

    fn affinity(nr: isize, mask: *mut u64, bytes: usize) -> isize {
        let ret: isize;
        // SAFETY: sched_{set,get}affinity(0, bytes, mask) reads or writes at
        // most `bytes` bytes at `mask`, and both callers pass a live local
        // array of exactly `bytes` bytes. The syscall instruction clobbers
        // rcx and r11, which are declared, and touches no other memory.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") nr => ret,
                in("rdi") 0usize,
                in("rsi") bytes,
                in("rdx") mask,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    pub fn getaffinity(mask: &mut [u64; 16]) -> bool {
        affinity(
            SCHED_GETAFFINITY,
            mask.as_mut_ptr(),
            std::mem::size_of_val(mask),
        ) > 0
    }

    pub fn setaffinity(mask: &[u64; 16]) -> bool {
        // The kernel only reads the mask for this call.
        let ptr = mask.as_ptr().cast_mut();
        affinity(SCHED_SETAFFINITY, ptr, std::mem::size_of_val(mask)) == 0
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod sys {
    pub fn getaffinity(_: &mut [u64; 16]) -> bool {
        false
    }

    pub fn setaffinity(_: &[u64; 16]) -> bool {
        false
    }
}
