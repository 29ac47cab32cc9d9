"""Meta-tests keeping documentation and code in sync."""

from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


class TestExperimentIdsDocumented:
    def test_every_experiment_appears_in_readme(self):
        from repro.experiments.run_all import REGISTRY

        readme = (REPO / "README.md").read_text()
        for experiment_id in REGISTRY:
            assert f"`{experiment_id}`" in readme, (
                f"experiment {experiment_id!r} missing from README.md"
            )

    def test_reproduce_doc_lists_scales(self):
        text = (REPO / "docs" / "reproduce.md").read_text()
        for scale in ("quick", "default", "full"):
            assert scale in text


class TestCliDocumented:
    def test_readme_lists_cli_commands(self):
        from repro.cli import build_parser

        readme = (REPO / "README.md").read_text()
        parser = build_parser()
        subparsers = next(
            a for a in parser._actions if a.__class__.__name__ == "_SubParsersAction"
        )
        core_commands = {"describe-machine", "predict", "optimize", "experiment"}
        for command in core_commands:
            assert command in subparsers.choices
            assert command in readme, f"CLI command {command!r} missing from README"


class TestWorkloadsDocumented:
    def test_every_workload_appears_in_workloads_doc(self):
        from repro.workloads import catalog

        text = (REPO / "docs" / "workloads.md").read_text()
        for name in catalog.all_names():
            assert name in text, f"workload {name!r} missing from docs/workloads.md"


class TestDesignInventory:
    def test_design_lists_every_figure(self):
        design = (REPO / "DESIGN.md").read_text()
        for artifact in ("Figure 1", "Figure 10", "Figure 11", "Figure 12",
                         "Figure 13", "Figure 14"):
            assert artifact in design

    def test_experiments_md_covers_every_artifact(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        for token in ("Figure 1", "Figure 10", "Figure 11", "Figure 12",
                      "Figure 13", "Figure 14", "sweep", "Worked example"):
            assert token in text


class TestObservabilityDocumented:
    """docs/observability.md tracks what the instrumentation emits."""

    SPANS = (
        "predictor.predict",
        "predictor.predict_batch",
        "predictor.iteration",
        "predictor.joint",
        "search.evaluate",
        "search.cache",
        "search.predict",
        "search.strategy",
        "sim.simulate",
        "sim.fixed_point",
        "rack.schedule",
        "rack.refine",
    )
    HISTOGRAMS = (
        "predictor.iterations",
        "predictor.residual",
        "predictor.batch.alive_rows",
        "predictor.joint.iterations",
        "search.cache.lookup_us",
        "sim.outer_iterations",
    )

    def test_every_emitted_span_name_is_documented(self):
        text = (REPO / "docs" / "observability.md").read_text()
        for name in self.SPANS + self.HISTOGRAMS:
            assert name in text, f"{name!r} missing from docs/observability.md"

    def test_enabling_paths_are_documented(self):
        text = (REPO / "docs" / "observability.md").read_text()
        for token in ("REPRO_TRACE", "--trace", "--trace-out", "--metrics",
                      "obs.enable()"):
            assert token in text

    def test_cli_exposes_the_documented_flags(self):
        from repro.cli import build_parser

        parser = build_parser()
        subparsers = next(
            a for a in parser._actions if a.__class__.__name__ == "_SubParsersAction"
        )
        for command in ("optimize", "experiment"):
            option_strings = {
                opt
                for action in subparsers.choices[command]._actions
                for opt in action.option_strings
            }
            for flag in ("--trace", "--trace-out", "--metrics"):
                assert flag in option_strings, (
                    f"{flag} missing from `pandia {command}`"
                )

    def test_api_and_model_docs_cross_link(self):
        for doc in ("api.md", "model.md"):
            text = (REPO / "docs" / doc).read_text()
            assert "observability.md" in text, (
                f"docs/{doc} does not link docs/observability.md"
            )

    def test_ci_validates_and_uploads_the_trace(self):
        ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        assert "--trace-out trace.json" in ci
        assert "validate_chrome_trace_file" in ci
        assert "path: trace.json" in ci


class TestObsV2Documented:
    """docs track the v2 observability surfaces: time series,
    flamegraphs, the ops dashboard and the bench sentinel."""

    DOC_TOKENS = (
        "timeseries",
        "TimeSeriesRecorder",
        "prometheus",
        "flamegraph",
        "percentile",
        "sample_at",
        "pandia profile",
        "pandia dashboard",
        "pandia bench check",
        "--dashboard-out",
        "--sample-window",
        "BENCH_HISTORY.jsonl",
    )

    def test_observability_doc_covers_the_v2_surface(self):
        text = (REPO / "docs" / "observability.md").read_text()
        for token in self.DOC_TOKENS:
            assert token.lower() in text.lower(), (
                f"{token!r} missing from docs/observability.md"
            )

    def test_api_doc_covers_the_surface(self):
        text = (REPO / "docs" / "api.md").read_text()
        for token in ("TimeSeriesRecorder", "prometheus_exposition",
                      "write_dashboard", "flamegraph_svg", "percentile",
                      "pandia dashboard", "pandia bench check",
                      "BENCH_HISTORY.jsonl", "--dashboard-out",
                      "--sample-window"):
            assert token in text, f"{token!r} missing from docs/api.md"

    def test_readme_mentions_the_surfaces(self):
        readme = (REPO / "README.md").read_text()
        for token in ("pandia dashboard", "pandia bench check",
                      "pandia profile"):
            assert token in readme, f"{token!r} missing from README.md"

    def test_cli_exposes_the_documented_commands_and_flags(self):
        from repro.cli import build_parser

        parser = build_parser()
        subparsers = next(
            a for a in parser._actions if a.__class__.__name__ == "_SubParsersAction"
        )
        for command in ("profile", "dashboard", "bench"):
            assert command in subparsers.choices, (
                f"`pandia {command}` missing from the CLI"
            )
        for command, flags in (
            ("dashboard", ("--out", "--sample-window", "--interval")),
            ("online", ("--dashboard-out", "--sample-window")),
        ):
            option_strings = {
                opt
                for action in subparsers.choices[command]._actions
                for opt in action.option_strings
            }
            for flag in flags:
                assert flag in option_strings, (
                    f"{flag} missing from `pandia {command}`"
                )

    def test_ci_gates_the_bench_sentinel_and_renders_a_dashboard(self):
        ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        assert "bench check" in ci
        assert "dashboard" in ci
        assert "path: dashboard.html" in ci

    def test_stale_artifacts_are_ignored_not_committed(self):
        gitignore = (REPO / ".gitignore").read_text()
        for pattern in ("report_default.html", "results_default.txt",
                        "dashboard.html"):
            assert pattern in gitignore, f"{pattern!r} missing from .gitignore"


class TestOnlineDocumented:
    """docs/online.md tracks the online scheduling service."""

    SPANS = (
        "online.run",
        "online.admit",
        "online.departure",
        "online.migrate",
    )
    HISTOGRAMS = (
        "online.decision_us",
        "online.queue_depth",
        "online.slowdown",
    )

    def test_emitted_names_are_documented(self):
        online = (REPO / "docs" / "online.md").read_text()
        observability = (REPO / "docs" / "observability.md").read_text()
        for name in self.SPANS + self.HISTOGRAMS:
            assert name in online, f"{name!r} missing from docs/online.md"
            assert name in observability, (
                f"{name!r} missing from docs/observability.md"
            )

    def test_every_policy_is_documented(self):
        from repro.online import policy_names

        text = (REPO / "docs" / "online.md").read_text()
        for name in policy_names():
            assert f"`{name}`" in text, (
                f"policy {name!r} missing from docs/online.md"
            )

    def test_api_and_model_docs_cross_link(self):
        for doc in ("api.md", "model.md"):
            text = (REPO / "docs" / doc).read_text()
            assert "online.md" in text, (
                f"docs/{doc} does not link docs/online.md"
            )

    def test_readme_mentions_the_subsystem(self):
        readme = (REPO / "README.md").read_text()
        assert "online/" in readme
        assert "pandia online" in readme

    def test_cli_exposes_the_documented_flags(self):
        from repro.cli import build_parser

        parser = build_parser()
        subparsers = next(
            a for a in parser._actions if a.__class__.__name__ == "_SubParsersAction"
        )
        option_strings = {
            opt
            for action in subparsers.choices["online"]._actions
            for opt in action.option_strings
        }
        for flag in ("--jobs", "--rate", "--pattern", "--policy", "--seed",
                     "--migrate", "--hysteresis", "--json", "--trace",
                     "--trace-out", "--metrics"):
            assert flag in option_strings, f"{flag} missing from `pandia online`"

    def test_ci_runs_and_uploads_the_online_bench(self):
        ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        assert "bench_rack_online.py --quick" in ci
        assert "BENCH_rack_online.json" in ci


class TestPredictionStoreDocumented:
    """docs track the persistent prediction store."""

    API_TOKENS = (
        "PredictionStore",
        "machine_digest",
        "fingerprint_digest",
    )

    def test_api_doc_covers_the_surface(self):
        text = (REPO / "docs" / "api.md").read_text()
        for token in self.API_TOKENS:
            assert token in text, f"{token!r} missing from docs/api.md"

    def test_readme_cross_links(self):
        readme = (REPO / "README.md").read_text()
        assert "--store" in readme

    def test_cli_exposes_the_documented_flags(self):
        from repro.cli import build_parser

        parser = build_parser()
        subparsers = next(
            a for a in parser._actions if a.__class__.__name__ == "_SubParsersAction"
        )
        for command in ("optimize", "online"):
            option_strings = {
                opt
                for action in subparsers.choices[command]._actions
                for opt in action.option_strings
            }
            assert "--store" in option_strings, (
                f"--store missing from `pandia {command}`"
            )

    def test_stats_surface_the_telemetry(self):
        # The documented SearchStats counters must exist: a rename
        # breaks both the docs and anyone reading summary() output.
        from repro.search.stats import SearchStats

        stats = SearchStats()
        for field in ("store_hits", "fixed_point_iterations"):
            assert hasattr(stats, field)
        text = (REPO / "docs" / "api.md").read_text()
        for field in ("store_hits", "fixed_point_iterations"):
            assert field in text, f"{field!r} missing from docs/api.md"


class TestLintDocumented:
    """docs/lint.md tracks the invariant checker."""

    def test_every_registered_rule_is_catalogued(self):
        from repro.lint import rule_ids

        text = (REPO / "docs" / "lint.md").read_text()
        for rule_id in rule_ids():
            assert f"`{rule_id}`" in text, (
                f"rule {rule_id!r} missing from docs/lint.md"
            )

    def test_suppression_syntax_is_documented(self):
        text = (REPO / "docs" / "lint.md").read_text()
        for token in ("lint-ok[", "--write-baseline", "lint-baseline.json",
                      "--select", "--format json"):
            assert token in text, f"{token!r} missing from docs/lint.md"

    def test_readme_and_api_cross_link(self):
        readme = (REPO / "README.md").read_text()
        assert "pandia lint" in readme
        assert "docs/lint.md" in readme
        api = (REPO / "docs" / "api.md").read_text()
        assert "lint.md" in api
        assert "run_lint" in api

    def test_telemetry_names_are_documented(self):
        text = (REPO / "docs" / "lint.md").read_text()
        for name in ("lint.run", "lint.files", "lint.findings."):
            assert name in text, f"{name!r} missing from docs/lint.md"

    def test_cli_exposes_the_documented_flags(self):
        from repro.cli import build_parser

        parser = build_parser()
        subparsers = next(
            a for a in parser._actions if a.__class__.__name__ == "_SubParsersAction"
        )
        assert "lint" in subparsers.choices
        option_strings = {
            opt
            for action in subparsers.choices["lint"]._actions
            for opt in action.option_strings
        }
        for flag in ("--format", "--select", "--baseline", "--no-baseline",
                     "--write-baseline", "--show-baselined"):
            assert flag in option_strings, f"{flag} missing from `pandia lint`"

    def test_ci_runs_the_linter_and_uploads_the_report(self):
        ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        assert "pandia lint" in ci or "repro.cli lint" in ci
        assert "lint-report.json" in ci

    def test_makefile_has_a_lint_target(self):
        makefile = (REPO / "Makefile").read_text()
        assert "\nlint:" in makefile


class TestSurrogateDocumented:
    """docs track the surrogate pre-filter end to end."""

    API_TOKENS = (
        "SurrogateStrategy",
        "train_surrogate",
        "save_surrogate",
        "load_surrogate",
        "PlacementFeaturizer",
        "FEATURE_NAMES",
        "fallback_reason",
        "pandia surrogate train",
        "--surrogate-model",
        "BENCH_surrogate.json",
    )
    MODEL_TOKENS = (
        "Surrogate pre-filter",
        "top-k",
        "canonical key",
        "min_confidence",
        "stable_rounds",
        "log_amdahl_rel",
    )

    def test_api_doc_covers_the_surface(self):
        text = (REPO / "docs" / "api.md").read_text()
        for token in self.API_TOKENS:
            assert token in text, f"{token!r} missing from docs/api.md"

    def test_model_doc_explains_the_protocol(self):
        text = (REPO / "docs" / "model.md").read_text()
        for token in self.MODEL_TOKENS:
            assert token in text, f"{token!r} missing from docs/model.md"

    def test_readme_cross_links(self):
        readme = (REPO / "README.md").read_text()
        assert "pandia surrogate train" in readme
        assert "--surrogate-model" in readme
        assert "surrogate/" in readme

    def test_telemetry_names_are_documented(self):
        text = (REPO / "docs" / "observability.md").read_text()
        for name in ("search.surrogate", "search.surrogate.score_us"):
            assert name in text, f"{name!r} missing from docs/observability.md"

    def test_cli_exposes_the_documented_flags(self):
        from repro.cli import build_parser

        parser = build_parser()
        subparsers = next(
            a for a in parser._actions if a.__class__.__name__ == "_SubParsersAction"
        )
        assert "surrogate" in subparsers.choices
        for command in ("optimize", "online"):
            option_strings = {
                opt
                for action in subparsers.choices[command]._actions
                for opt in action.option_strings
            }
            assert "--surrogate-model" in option_strings, (
                f"--surrogate-model missing from `pandia {command}`"
            )
        strategy_action = next(
            a
            for a in subparsers.choices["optimize"]._actions
            if "--strategy" in a.option_strings
        )
        assert "surrogate" in strategy_action.choices

    def test_stats_surface_the_telemetry(self):
        from repro.search.stats import SearchStats

        stats = SearchStats()
        for field in ("surrogate_scored", "surrogate_verified",
                      "surrogate_fallbacks", "surrogate_regret",
                      "surrogate_verify_rate", "note_surrogate_regret"):
            assert hasattr(stats, field)
        text = (REPO / "docs" / "api.md").read_text()
        for field in ("surrogate_scored", "surrogate_verified",
                      "surrogate_fallbacks"):
            assert field in text, f"{field!r} missing from docs/api.md"

    def test_ci_runs_and_uploads_the_surrogate_bench(self):
        ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        assert "bench_search.py --surrogate" in ci
        assert "BENCH_surrogate.json" in ci
