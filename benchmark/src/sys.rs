//! What the benchmark asks of the operating system: process CPU time,
//! resident-set size, the filesystem under the store directory, and a
//! scratch directory that is removed however the run ends.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by every thread of this process so far.
pub fn process_cpu_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) that outlives the call, and
    // the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Hands the allocator's free memory back to the kernel (glibc).
///
/// Whether glibc keeps or returns the set-up's freed generator output
/// depends on its allocation history — a 20 MB step in resident size
/// that an unrelated edit can flip. Trimming before the high-water mark
/// is reset makes the baseline the live heap, whatever the history.
pub fn release_freed_memory() {
    // SAFETY: `malloc_trim` takes no pointers and may be called at any
    // time; no other thread of this process is allocating in a way that
    // depends on the trimmed top pad.
    unsafe { malloc_trim(0) };
}

/// One `Vm*` line of `/proc/self/status`, in bytes.
fn proc_status_bytes(status: &str, field: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

fn read_status(field: &str) -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| proc_status_bytes(&s, field))
        .unwrap_or(0)
}

/// Peak resident-set size over a phase.
///
/// `start` resets the kernel's high-water mark (`VmHWM`) by writing `5`
/// to `/proc/self/clear_refs`; where that is refused (read-only `/proc`,
/// old kernel) the tracker falls back to the largest `VmRSS` seen by
/// [`RssTracker::sample`], which the load loop calls after every
/// operation. `mode()` says which one a run used.
#[derive(Debug)]
pub struct RssTracker {
    hwm_reset: bool,
    sampled_max: u64,
}

impl RssTracker {
    pub fn start() -> Self {
        release_freed_memory();
        Self::start_at(Path::new("/proc/self/clear_refs"))
    }

    fn start_at(clear_refs: &Path) -> Self {
        Self {
            hwm_reset: fs::write(clear_refs, "5").is_ok(),
            sampled_max: read_status("VmRSS"),
        }
    }

    pub fn sample(&mut self) {
        if !self.hwm_reset {
            self.sampled_max = self.sampled_max.max(read_status("VmRSS"));
        }
    }

    pub fn peak_bytes(&mut self) -> u64 {
        if self.hwm_reset {
            read_status("VmHWM")
        } else {
            self.sample();
            self.sampled_max
        }
    }

    pub fn mode(&self) -> &'static str {
        if self.hwm_reset {
            "VmHWM-reset"
        } else {
            "VmRSS-sampled"
        }
    }
}

/// Filesystem type of the mount holding `path`, from
/// `/proc/self/mountinfo` (longest mount-point prefix wins).
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, &str)> = None;
    for line in mounts.lines() {
        // "<id> <parent> <maj:min> <root> <mount point> <opts> ... - <fstype> <source> ..."
        let Some((left, right)) = line.split_once(" - ") else {
            continue;
        };
        let (Some(mount_point), Some(fstype)) = (left.split(' ').nth(4), right.split(' ').next())
        else {
            continue;
        };
        if path.starts_with(mount_point) && best.is_none_or(|(len, _)| mount_point.len() > len) {
            best = Some((mount_point.len(), fstype));
        }
    }
    best.map_or("unknown", |(_, t)| t).to_string()
}

/// The checked-out commit, read from `.git` without running git; a
/// checkout that is not a repository reports `none`.
pub fn git_rev() -> String {
    let read = |p: &str| fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(reference) => read(&format!(".git/{reference}")).unwrap_or(head),
            None => head,
        },
        None => "none".into(),
    }
}

/// Bytes of every regular file directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// A per-run scratch directory, removed when dropped — on a normal
/// return, an error return and a panic alike.
#[derive(Debug)]
pub struct RunDir(PathBuf);

impl RunDir {
    pub fn create(root: &Path, label: &str) -> std::io::Result<Self> {
        let path = root.join(format!("{label}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path)?;
        Ok(Self(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A fresh, empty sub-directory.
    pub fn sub(&self, name: &str) -> PathBuf {
        let p = self.0.join(name);
        let _ = fs::remove_dir_all(&p);
        p
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let t0 = process_cpu_time();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(process_cpu_time() > t0, "burned cycles must show ({x})");
    }

    #[test]
    fn status_lines_parse_to_bytes() {
        let status = "Name:\tx\nVmHWM:\t  2048 kB\nVmRSS:\t  1024 kB\n";
        assert_eq!(proc_status_bytes(status, "VmHWM"), Some(2048 * 1024));
        assert_eq!(proc_status_bytes(status, "VmRSS"), Some(1024 * 1024));
        assert_eq!(proc_status_bytes(status, "VmSwap"), None);
    }

    #[test]
    fn refused_hwm_reset_falls_back_to_sampling() {
        let mut t = RssTracker::start_at(Path::new("/nonexistent-dir/clear_refs"));
        assert_eq!(t.mode(), "VmRSS-sampled");
        let before = t.peak_bytes();
        assert!(before > 0, "VmRSS must be readable on Linux");
        // Touch 64 MiB so the sampled maximum has to move.
        let block = vec![1u8; 64 << 20];
        t.sample();
        assert!(t.peak_bytes() >= before + (32 << 20), "{}", block.len());
    }

    #[test]
    fn run_dir_is_removed_on_drop() {
        let root = crate::default_root().join("rundir-test");
        let kept;
        {
            let run = RunDir::create(&root, "t").unwrap();
            fs::write(run.path().join("f"), b"x").unwrap();
            assert_eq!(dir_bytes(run.path()), 1);
            kept = run.path().to_path_buf();
        }
        assert!(!kept.exists());
        let _ = fs::remove_dir_all(&root);
    }
}
