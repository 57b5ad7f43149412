"""Unit coverage for the CLI's peak-RSS probe.

``peak_rss_mb`` feeds ``serve --max-rss-mb``'s gate, so its two
sources — procfs ``VmHWM`` and the ``getrusage`` fallback with its
platform-dependent unit — are pinned here without monkeypatching the
live process state.
"""

import sys

from repro.__main__ import _rusage_mb, _vm_hwm_mb, peak_rss_mb


class TestVmHwm:
    def test_parses_vm_hwm_line(self, tmp_path):
        status = tmp_path / "status"
        status.write_text(
            "Name:\tpython\nVmPeak:\t  999999 kB\nVmHWM:\t   51200 kB\n"
        )
        assert _vm_hwm_mb(str(status)) == 50.0

    def test_missing_file_returns_none(self, tmp_path):
        assert _vm_hwm_mb(str(tmp_path / "no-such-status")) is None

    def test_file_without_hwm_returns_none(self, tmp_path):
        """A procfs without VmHWM (or any non-Linux stand-in) falls
        through to the rusage path instead of crashing."""
        status = tmp_path / "status"
        status.write_text("Name:\tpython\nVmPeak:\t  999999 kB\n")
        assert _vm_hwm_mb(str(status)) is None


class TestRusageFallback:
    def test_linux_reports_kib(self):
        assert _rusage_mb(2048, "linux") == 2.0

    def test_darwin_reports_bytes(self):
        assert _rusage_mb(2 * 1024 * 1024, "darwin") == 2.0

    def test_other_posix_defaults_to_kib(self):
        assert _rusage_mb(1024, "freebsd14") == 1.0


class TestPeakRss:
    def test_live_probe_positive_on_posix(self):
        peak = peak_rss_mb()
        if sys.platform.startswith(("linux", "darwin")):
            assert peak is not None and peak > 0.0
        elif peak is not None:
            assert peak > 0.0

    def test_fallback_used_without_procfs(self, monkeypatch):
        """With procfs unavailable the probe still answers via
        getrusage where the resource module exists."""
        import repro.__main__ as cli

        monkeypatch.setattr(cli, "_vm_hwm_mb", lambda: None)
        try:
            import resource  # noqa: F401
        except ImportError:
            assert cli.peak_rss_mb() is None
        else:
            peak = cli.peak_rss_mb()
            assert peak is not None and peak > 0.0
