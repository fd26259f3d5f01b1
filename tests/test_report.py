"""Tests for the markdown report generator."""

from repro.harness.report import generate_report, write_report


class TestReport:
    def test_generate_contains_every_artifact(self):
        text = generate_report(trials=4, runs=2)
        for heading in ("Table 1", "Table 2", "Table 3", "Table 4",
                        "Figure 5", "Figure 6"):
            assert heading in text
        assert "dekker" in text
        assert "| benchmark |" in text  # markdown tables

    def test_write_report(self, tmp_path):
        path = tmp_path / "report.md"
        returned = write_report(str(path), trials=3, runs=2)
        assert returned == str(path)
        content = path.read_text()
        assert content.startswith("# PCTWM reproduction")
        assert content.endswith("\n")

    def test_cli_report_command(self, tmp_path, capsys):
        from repro.harness.cli import main
        out = tmp_path / "r.md"
        assert main(["report", "--trials", "3", "--runs", "2",
                     "--out", str(out)]) == 0
        assert out.exists()
        assert "report written" in capsys.readouterr().out


class TestFigureFaultsInReport:
    """Figures 5-6 carry their campaigns' faults into the report."""

    def test_health_lines_count_figure_faults(self, monkeypatch):
        from repro.harness import report
        from repro.harness.figures import Figure5Bar, Figure6Series
        from repro.harness.tables import Table2Row, Table3Row

        calls = {}

        def fake_figure5(**kwargs):
            calls["figure5"] = kwargs["sanitize"]
            return [Figure5Bar("dekker", 40.0, 50.0, 100.0, "d=1",
                               "d=0,h=1", errors=2, timeouts=1,
                               inconsistent=4)]

        def fake_figure6(**kwargs):
            calls["figure6"] = kwargs["sanitize"]
            return {"dekker": Figure6Series("dekker", [0], [1.0], [2.0],
                                            [3.0], errors=1, timeouts=0,
                                            inconsistent=5)}

        monkeypatch.setattr(report, "table1", lambda seed: [])
        monkeypatch.setattr(report, "table2",
                            lambda **kw: [Table2Row("dekker", 0, errors=3)])
        monkeypatch.setattr(report, "table3",
                            lambda **kw: [Table3Row("dekker", 4, 0)])
        monkeypatch.setattr(report, "table4", lambda **kw: [])
        monkeypatch.setattr(report, "figure5", fake_figure5)
        monkeypatch.setattr(report, "figure6", fake_figure6)
        text = report.generate_report(trials=2, runs=1, sanitize="all")
        assert calls == {"figure5": "all", "figure6": "all"}
        assert "**Campaign health:** 7 contained fault(s)" in text
        assert "**Sanitizer:** 9 trial(s)" in text
        assert "| dekker | 40.0 | 50.0 | 100.0 | pct[d=1] pctwm[d=0,h=1] " \
               "| 2 | 1 | 4 |" in text


class TestSanitizeReachesFigures:
    def test_cli_figures_sanitize_every_campaign(self, monkeypatch,
                                                 capsys):
        from repro.harness import figures
        from repro.harness.cli import main

        seen = []
        real = figures.run_campaign_parallel

        def spy(*args, **kwargs):
            seen.append(kwargs.get("sanitize"))
            return real(*args, **kwargs)

        monkeypatch.setattr(figures, "run_campaign_parallel", spy)
        for command in ("figure5", "figure6"):
            assert main([command, "--trials", "2", "--benchmarks",
                         "dekker", "--sanitize", "all"]) == 0
        assert seen and set(seen) == {"all"}
        assert "inc" in capsys.readouterr().out
