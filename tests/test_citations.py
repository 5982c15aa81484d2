import pytest

from lexigraph.citations import Citation, extract_citations_regex


def keys(text):
    return [(c.kind, c.key) for c in extract_citations_regex(text)]


class TestRegexExtractor:
    def test_nmsa_with_year_and_symbol(self):
        assert keys("see NMSA 1978, § 41-5-1 et seq.") == [("nmsa_statute", "NMSA 41-5-1")]

    def test_case_with_comma_year(self):
        assert keys("Smith v. South, 1955") == [("nm_case", "SMITH V. SOUTH (1955)")]

    def test_empty(self):
        assert keys("") == []

    def test_section_before_nmsa(self):
        assert keys("Section 41-5-1 NMSA controls") == [("nmsa_statute", "NMSA 41-5-1")]

    def test_range_yields_both_endpoints(self):
        assert keys("NMSA 1978 §§ 41-5-1 to 41-5-29") == [
            ("nmsa_statute", "NMSA 41-5-1"),
            ("nmsa_statute", "NMSA 41-5-29"),
        ]

    def test_bare_section_symbols(self):
        assert keys("see §37-1-4, §37-1-8, §41-5-13") == [
            ("nmsa_statute", "NMSA 37-1-4"),
            ("nmsa_statute", "NMSA 37-1-8"),
            ("nmsa_statute", "NMSA 41-5-13"),
        ]

    def test_conjunction_list(self):
        assert keys("NMSA 41-5-3 and 41-5-15 apply") == [
            ("nmsa_statute", "NMSA 41-5-3"),
            ("nmsa_statute", "NMSA 41-5-15"),
        ]

    def test_neutral_citation_with_name(self):
        assert keys("Gomez v. Chua, 1994-NMSC-125") == [("nm_case", "GOMEZ V. CHUA (1994)")]

    def test_neutral_citation_alone(self):
        assert keys("as held in 2014-NMCA-064") == [("nm_case", "2014-NMCA-064")]

    def test_parenthesized_year(self):
        assert keys("CERVANTES v. FORBIS (1964)") == [("nm_case", "CERVANTES V. FORBIS (1964)")]

    def test_constitution_article_section(self):
        assert keys("Article IV, Section 22") == [("constitution_clause", "NM CONST ART IV § 22")]

    def test_constitution_nm_const_form(self):
        assert keys("N.M. Const. art. IV, § 22") == [("constitution_clause", "NM CONST ART IV § 22")]

    def test_chapter_article_section_is_statute(self):
        assert keys("Chapter 50, Article 17, Section 3") == [("nmsa_statute", "NMSA 50-17-3")]

    def test_rule_citation(self):
        assert keys("Rule 11-702 NMRA on expert testimony") == [("rule", "RULE 11-702")]

    def test_dedup_keeps_first_occurrence_order(self):
        text = "NMSA 41-5-1 ... later NMSA 1978, § 41-5-1 again, then § 37-1-8"
        assert keys(text) == [
            ("nmsa_statute", "NMSA 41-5-1"),
            ("nmsa_statute", "NMSA 37-1-8"),
        ]

    def test_leading_stopword_not_in_case_name(self):
        assert keys("In Smith v. Jones, 2001 the court held") == [
            ("nm_case", "SMITH V. JONES (2001)")
        ]

    def test_mixed_sentence(self):
        text = ("The court applied NMSA 1978, §41-5-13 following "
                "GOODMAN v. BROCK (1972) and Article IV, Section 22.")
        assert keys(text) == [
            ("nmsa_statute", "NMSA 41-5-13"),
            ("nm_case", "GOODMAN V. BROCK (1972)"),
            ("constitution_clause", "NM CONST ART IV § 22"),
        ]

    def test_citation_requires_key(self):
        with pytest.raises(ValueError):
            Citation(raw="x", kind="other", key="")
