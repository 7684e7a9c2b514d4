"""The benchmark's workloads: one `forestinv synth` scene config each.

Every workload is a scene INI. The benchmark writes it with the seed
given on its command line, runs `forestinv synth` on it, then runs
`forestinv run --threads 2` on the generated `pipeline.ini`. The
program sees only the generated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scene_ini: str
    floors: bool = False   # apply the criterion-10 quality floors


# Criterion-10 generator settings at 64 trees instead of 200, so that
# one run takes about 5 s.
ACCEPTANCE = Workload(
    name="acceptance",
    why="criterion-10 scene at 64 trees: CHM dominates, SVM at k = 8; "
        "outputs must meet the criterion-10 quality floors",
    floors=True,
    scene_ini="""\
[scene]
n_trees = 64
species = PIAB, ABAL, LADE, FASY, QUPU
nbands = 16
n_plots = 10
noise_sigma = 0.02
signature_amplitude = 0.6

[spectral]
drop_head = 7
drop_tail = 8
k = 8
max_training_pixels_per_species = 600

[classify]
classifier = svm
c = 10
""")

# The paper's band count (137 raw, 122 after trim), with species
# signatures that overlap under the noise so that band selection and
# SMO do real work; the default signatures saturate the JM criterion.
# k = 16 and 500 px/species rather than the paper's k = 35 and 2000
# px/species keep one run near 8 s.
PAPER_SPECTRAL = Workload(
    name="paper-spectral",
    why="paper band count (122 after trim), k = 16, overlapping species "
        "signatures: band selection, SMO and the RBF kernel dominate",
    scene_ini="""\
[scene]
n_trees = 40
species = PIAB, ABAL, LADE, FASY, QUPU
nbands = 122
n_plots = 10
noise_sigma = 0.1
signature_amplitude = 0.1

[spectral]
k = 16
max_training_pixels_per_species = 500

[classify]
classifier = svm
c = 10
""")

# Many small crowns at a sparse survey density (400 trees rather than
# 1600, so that one run takes about 4 s). min_dist is 4 because the
# jittered 7 m grid only guarantees 4.49 m apex spacing.
DENSE_STAND = Workload(
    name="dense-stand",
    why="400 small crowns at 4 points/m2 with the centroid classifier: "
        "crowns and per-crown loops grow, the SVM is bypassed",
    scene_ini="""\
[scene]
n_trees = 400
species = PIAB, ABAL, LADE, FASY, QUPU
nbands = 16
pitch = 7
radius_min = 1.5
radius_max = 2.5
height_min = 10
height_max = 20
point_density = 4
n_plots = 10

[crowns]
min_dist = 4

[spectral]
k = 8
max_training_pixels_per_species = 600

[classify]
classifier = centroid
""")

WORKLOADS = {w.name: w for w in (ACCEPTANCE, PAPER_SPECTRAL, DENSE_STAND)}


def scene_ini(workload: Workload, seed: int) -> str:
    """The workload's scene config with its [run] section."""
    return workload.scene_ini + f"\n[run]\nseed = {seed}\noutput_dir = scene\n"
