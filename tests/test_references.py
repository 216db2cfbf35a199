"""Every boundary constant of twelve families against its defining system.

The references were solved with mpmath at 60 digits, outside the suite,
and are held here as literals (30 digits shown; neither this module nor
the package imports mpmath):
- lambda_1to2: (h11, h21) = 0 in (lambda, x), h21 taken as
  D1 c(z2) - B with z2 = xi'(1) x / xi'(x) - 1;
- lambda_2to2F: (h12, h22) = 0 in (lambda, x), z2 = D1 / xi''(x) - 1;
- lambda_2to1: Psi = 0 above l1;
- lambda_2to1F: the smaller root of the onset quadratic, from its
  integer coefficients;
- lambda_1Fto1: s^2 (s - 1) / ((s - 2)(s^2 + s + 6));
- lambda_1to1F: 2 lambda z = s (1 - lambda), with z the tilt,
  c(z) = 1 / xi'(1).
D1 = (xi'(1) - xi'(x)) / (1 - x) and B = (xi(1) - xi(x) - (1 - x)
xi'(x)) / (1 - x)^2 were taken from their definitions at 60 digits. Each
system's residual at the reference is below 1e-45.
"""
import pytest

from parisi_zero import boundaries

REFERENCES = {
    (4, 38): ("FourPhase", {
        "lambda_1to2": 0.609364516485433458318894237141,
        "lambda_2to2F": 0.98168463242462447526944340825,
        "lambda_2to1F": 0.987148206039556736220304065764,
        "lambda_2to1": 0.989979641041596615904378988316}),
    (3, 20): ("FourPhase", {
        "lambda_1to2": 0.564611106538314510641953541358,
        "lambda_2to2F": 0.952261870153960710121697163196,
        "lambda_2to1F": 0.978463169326327098016390790629,
        "lambda_2to1": 0.988334122236308944964510996211}),
    (3, 16): ("FourPhase", {
        "lambda_1to2": 0.662474842732512677989257879358,
        "lambda_2to2F": 0.957402711418415836071946336554,
        "lambda_2to1F": 0.969951102325970437392977435877,
        "lambda_2to1": 0.976593530071010426203542849309}),
    (5, 57): ("FourPhase", {
        "lambda_1to2": 0.644671833044004722257169887234,
        "lambda_2to2F": 0.989945192103966233762122688777,
        "lambda_2to1F": 0.99019885323689362917612343592,
        "lambda_2to1": 0.99036496626920172268317387465}),
    (3, 14): ("TwoPhase", {
        "lambda_1to2": 0.747773813286414114530678038054,
        "lambda_2to1": 0.960826681922564826108033185997}),
    (4, 28): ("TwoPhase", {
        "lambda_1to2": 0.731102927909630585480297318317,
        "lambda_2to1": 0.974764944518231437675427601604}),
    (2, 8): ("P2Family", {
        "lambda_1to1F": 0.269171812689453325768801328999,
        "lambda_1Fto1": 0.957264957264957264957264957265}),
    (2, 30): ("P2Family", {
        "lambda_1to1F": 0.137223410213531636214071818773,
        "lambda_1Fto1": 0.995879120879120879120879120879}),
    # s >= 50 and p >= 6: lambda_1to2 and lambda_1to1F read the tilt z
    (5, 64): ("FourPhase", {
        "lambda_1to2": 0.612305123446675387870895557335,
        "lambda_2to2F": 0.990493025818386838096883028282,
        "lambda_2to1F": 0.99200052503313885820978408133,
        "lambda_2to1": 0.992888968159093695269117973981}),
    (6, 52): ("TwoPhase", {
        "lambda_1to2": 0.827137932897619548382126651126,
        "lambda_2to1": 0.966846476703934285218292238122}),
    (8, 78): ("TwoPhase", {
        "lambda_1to2": 0.880132778095324795016845604302,
        "lambda_2to1": 0.959679281996939662798721064481}),
    (2, 55): ("P2Family", {
        "lambda_1to1F": 0.113006462202463818539466847155,
        "lambda_1Fto1": 0.998728279876251849496814585652}),
}


@pytest.mark.parametrize("family", sorted(REFERENCES))
def test_every_constant_lies_within_1e12_of_its_reference(family):
    tag, refs = REFERENCES[family]
    b = boundaries(*family)
    assert b.regime.tag == tag
    got = b.p2 if tag == "P2Family" else b.general
    assert set(got) == set(refs)
    for key, ref in refs.items():
        assert abs(got[key] - ref) <= 1e-12, (family, key, got[key], ref)
