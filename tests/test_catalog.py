import pytest

from schurlab.catalog import CatalogError, import_file, load_bundled


def test_bundle_loads_and_is_consistent():
    entries = load_bundled()
    assert len(entries) >= 40
    names = [e.name for e in entries]
    assert len(names) == len(set(names))


def test_bundle_coverage():
    entries = {e.name: e for e in load_bundled()}
    # both primes 2 and 3 well represented, plus some p = 5
    assert sum(1 for e in entries.values() if e.presentation.prime == 2) >= 15
    assert sum(1 for e in entries.values() if e.presentation.prime == 3) >= 15
    assert sum(1 for e in entries.values() if e.presentation.prime == 5) >= 4
    assert sum(1 for e in entries.values() if e.order == 81) >= 4
    assert "heisenberg_3" in entries and "wreath_c3_c3" in entries


def test_import_file_roundtrip(tmp_path):
    src = load_bundled()[0].presentation.to_catalog_text()
    path = tmp_path / "extra.cat"
    for bom in ("", "\ufeff"):  # a UTF-8 byte-order mark is skipped
        path.write_text(bom + src, encoding="utf-8")
        entries = import_file(str(path))
        assert len(entries) == 1
        assert entries[0].presentation.to_catalog_text() == src


def test_import_rejects_inconsistent(tmp_path):
    text = (
        "[group]\n"
        "name = broken\n"
        "ngens = 3\n"
        "orders = 2 2 3\n"
        "comm 2 1 : g3\n"
    )
    path = tmp_path / "bad.cat"
    path.write_text(text)
    with pytest.raises(CatalogError) as excinfo:
        import_file(str(path))
    assert "broken" in str(excinfo.value)
    assert excinfo.value.violations
