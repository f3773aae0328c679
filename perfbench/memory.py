"""A process's resident memory, read from ``/proc/<pid>/status``.

``peak_rss_mb`` reports memory the program itself takes: a process's
peak resident set (``VmHWM``) minus its resident set (``VmRSS``) when
the peak was last reset.  The interpreter and the imported modules are
most of a process's RSS (about 21 MB for the simulator, 26 MB for the
lock server after boot), so the whole peak hides the program's own
few megabytes.
"""

from __future__ import annotations

from pathlib import Path


def _status_mb(field: str, pid: int | str) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith(f"{field}:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no {field} in /proc/{pid}/status")


def rss_mb(pid: int | str = "self") -> float:
    """The resident set now."""
    return _status_mb("VmRSS", pid)


def peak_rss_mb(pid: int | str = "self") -> float:
    """The peak resident set since the process started or the peak was
    last reset."""
    return _status_mb("VmHWM", pid)


def reset_peak_rss(pid: int | str = "self") -> float:
    """Restart the kernel's peak-RSS watermark at the current RSS and
    return that RSS.  Fails where the kernel refuses, since the peak
    would then include everything before."""
    try:
        Path(f"/proc/{pid}/clear_refs").write_text("5")
    except OSError as exc:
        raise RuntimeError(
            f"cannot reset the peak RSS of process {pid}: {exc}"
        ) from exc
    return rss_mb(pid)
