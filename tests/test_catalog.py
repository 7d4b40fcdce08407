"""CPU catalog: parsing, lookup, and efficiency ratios."""

import datetime as dt
import io

import pytest

from migrent import (
    Catalog,
    CatalogError,
    CpuSpec,
    bundled_catalog,
    compute_ce,
    lift_and_shift_fraction,
    load_catalog,
)

from oracles import lift_and_shift_ref


def make_csv(rows) -> io.StringIO:
    header = "model_name,spec_score,tdp_watts,release_date,cores,cloud"
    return io.StringIO("\n".join([header, *rows]) + "\n")


class TestComputeCe:
    def test_direct_ratio(self):
        assert compute_ce(CpuSpec("a", 600.0, 120.0, dt.date(2016, 1, 1), 8)) == 5.0
        assert compute_ce(CpuSpec("b", 300.0, 95.0, dt.date(2012, 1, 1), 8)) == pytest.approx(3.1578947, abs=1e-6)

    def test_identity_like(self):
        assert compute_ce(CpuSpec("c", 120.0, 120.0, dt.date(2014, 1, 1), 8)) == 1.0

    def test_scaling_invariance(self):
        base = CpuSpec("a", 313.0, 97.0, dt.date(2014, 1, 1), 8)
        scaled = CpuSpec("a2", 313.0 * 3.7, 97.0 * 3.7, dt.date(2014, 1, 1), 8)
        assert compute_ce(base) == pytest.approx(compute_ce(scaled), rel=1e-12)


class TestLiftAndShift:
    def test_worked_example(self):
        # CE 3.1579 vs CE 5.0
        on_prem = CpuSpec("a", 31.579, 10.0, dt.date(2012, 1, 1), 8)
        cloud = CpuSpec("b", 50.0, 10.0, dt.date(2016, 1, 1), 16)
        assert lift_and_shift_fraction(on_prem, cloud) == pytest.approx(0.63158, abs=1e-9)
        assert lift_and_shift_fraction(on_prem, cloud) == pytest.approx(
            lift_and_shift_ref(31.579, 10.0, 50.0, 10.0), rel=1e-12
        )

    def test_identity(self):
        spec = CpuSpec("a", 400.0, 100.0, dt.date(2014, 1, 1), 8)
        assert lift_and_shift_fraction(spec, spec) == 1.0

    def test_regression_case(self):
        # newer on-prem hardware than the cloud target: energy increases
        on_prem = CpuSpec("a", 600.0, 100.0, dt.date(2016, 1, 1), 8)
        cloud = CpuSpec("b", 500.0, 100.0, dt.date(2015, 1, 1), 8)
        assert lift_and_shift_fraction(on_prem, cloud) == pytest.approx(1.2, rel=1e-12)

    def test_reciprocal_product_is_one(self):
        a = CpuSpec("a", 317.0, 93.0, dt.date(2011, 1, 1), 4)
        b = CpuSpec("b", 641.0, 127.0, dt.date(2015, 1, 1), 12)
        product = lift_and_shift_fraction(a, b) * lift_and_shift_fraction(b, a)
        assert product == pytest.approx(1.0, rel=1e-12)


class TestCpuSpecValidation:
    def test_rejects_nonpositive_score(self):
        with pytest.raises(CatalogError, match="spec_score"):
            CpuSpec("a", 0.0, 100.0, dt.date(2014, 1, 1), 8)

    def test_rejects_nonpositive_tdp(self):
        with pytest.raises(CatalogError, match="tdp_watts"):
            CpuSpec("a", 100.0, -1.0, dt.date(2014, 1, 1), 8)

    def test_rejects_zero_cores(self):
        with pytest.raises(CatalogError, match="cores"):
            CpuSpec("a", 100.0, 100.0, dt.date(2014, 1, 1), 0)

    def test_rejects_empty_name(self):
        with pytest.raises(CatalogError, match="model_name"):
            CpuSpec("", 100.0, 100.0, dt.date(2014, 1, 1), 8)


class TestLoadCatalog:
    def test_three_row_round_trip(self):
        catalog = load_catalog(make_csv([
            "alpha,300,95,2012-03-01,8,false",
            "beta,500,100,2014-05-01,8,false",
            "gamma,600,120,2016-01-15,16,true",
        ]))
        assert len(catalog) == 3
        assert catalog.lookup("alpha").spec_score == 300.0
        assert catalog.lookup("alpha").release_date == dt.date(2012, 3, 1)
        assert catalog.cloud_reference == "gamma"

    def test_zero_tdp_names_line(self):
        with pytest.raises(CatalogError, match="line 3") as excinfo:
            load_catalog(make_csv([
                "alpha,300,95,2012-03-01,8,true",
                "beta,500,0,2014-05-01,8,false",
            ]))
        assert excinfo.value.line == 3

    @pytest.mark.parametrize("row", [
        "beta,inf,100,2014-05-01,8,false",
        "beta,1e400,100,2014-05-01,8,false",
        "beta,500,inf,2014-05-01,8,false",
        "beta,500,1e400,2014-05-01,8,false",
    ])
    def test_non_finite_score_or_tdp_names_line(self, row):
        message = "line 3: beta: (spec_score|tdp_watts) must be finite and positive, got inf"
        with pytest.raises(CatalogError, match=message):
            load_catalog(make_csv(["alpha,300,95,2012-03-01,8,true", row]))

    def test_duplicate_model_rejected(self):
        with pytest.raises(CatalogError, match="duplicate"):
            load_catalog(make_csv([
                "XeonE5-2670,300,95,2012-03-01,8,true",
                "XeonE5-2670,310,95,2012-06-01,8,false",
            ]))

    def test_bad_header_rejected(self):
        stream = io.StringIO("name,score\nx,1\n")
        with pytest.raises(CatalogError, match="header"):
            load_catalog(stream)

    def test_bad_date_names_line(self):
        with pytest.raises(CatalogError, match="line 2.*release_date"):
            load_catalog(make_csv(["alpha,300,95,01/03/2012,8,true"]))

    def test_bad_cloud_flag_names_line(self):
        with pytest.raises(CatalogError, match="line 2.*cloud") as excinfo:
            load_catalog(make_csv(["alpha,300,95,2012-03-01,8,yes"]))
        assert excinfo.value.line == 2

    def test_cloud_reference_defaults_to_newest_cloud_entry(self):
        catalog = load_catalog(make_csv([
            "a,300,95,2012-03-01,8,true",
            "b,500,100,2014-05-01,8,true",
            "c,900,150,2016-01-15,16,false",
        ]))
        assert catalog.cloud_reference == "b"

    def test_no_cloud_entry_is_an_error(self):
        with pytest.raises(CatalogError, match="cloud"):
            load_catalog(make_csv(["a,300,95,2012-03-01,8,false"]))

    def test_explicit_cloud_reference_override(self):
        catalog = load_catalog(make_csv([
            "a,300,95,2012-03-01,8,true",
            "b,500,100,2014-05-01,8,false",
        ]), cloud_reference="b")
        assert catalog.cloud_spec.model_name == "b"

    def test_unknown_cloud_reference_rejected(self):
        with pytest.raises(CatalogError, match="not in the catalog"):
            load_catalog(make_csv(["a,300,95,2012-03-01,8,true"]), cloud_reference="missing")

    def test_misspelled_cloud_reference_gives_hint(self):
        with pytest.raises(CatalogError, match=r"did you mean: cloud-box\?"):
            load_catalog(make_csv(["cloud-box,300,95,2012-03-01,8,true"]), cloud_reference="cloud-bx")

    def test_catalog_constructor_gives_hint(self, small_catalog):
        hint = r"'cloud-bx' is not in the catalog \(did you mean: cloud-box, old-box\?\)"
        with pytest.raises(CatalogError, match=hint):
            Catalog(list(small_catalog), "cloud-bx")

    def test_missing_file_errors(self, tmp_path):
        with pytest.raises(CatalogError, match="cannot read"):
            load_catalog(tmp_path / "nope.csv")


class TestLookup:
    def test_known_name(self, small_catalog):
        assert small_catalog.lookup("old-box").model_name == "old-box"

    def test_unknown_name_gives_hint(self, small_catalog):
        with pytest.raises(CatalogError, match="old-box"):
            small_catalog.lookup("old-bax")

    def test_empty_string_not_found(self, small_catalog):
        with pytest.raises(CatalogError, match="unknown"):
            small_catalog.lookup("")


class TestBundledCatalog:
    def test_loads_and_has_cloud_reference(self):
        catalog = bundled_catalog()
        assert len(catalog) >= 10
        assert catalog.cloud_reference in catalog
        assert catalog.cloud_spec.cloud

    def test_fraction_spread_is_plausible(self):
        catalog = bundled_catalog()
        fractions = [catalog.lift_and_shift(name) for name in catalog.model_names()]
        assert min(fractions) < 0.4          # old hardware saves a lot
        assert max(fractions) > 1.0          # at least one model regresses

    def test_catalog_requires_valid_reference(self):
        with pytest.raises(CatalogError):
            Catalog([CpuSpec("a", 1.0, 1.0, dt.date(2014, 1, 1), 1)], "b")
