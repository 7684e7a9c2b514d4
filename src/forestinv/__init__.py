"""Individual-tree forest inventory from airborne LiDAR and hyperspectral data."""

from .allometry import (
    DbhModel,
    SpeciesRegistry,
    agb_jucker,
    enrich_crowns,
    estimate_dbh,
    volume_double_entry,
)
from .chm import PitfreeParams, normalize_heights, pitfree_chm
from .classify import (
    CentroidModel,
    SvmModel,
    classify_image,
    label_crowns_majority,
    predict_centroid,
    predict_svm,
    train_centroid,
    train_svm,
)
from .crowns import (
    CrownRecord,
    ItcParams,
    detect_treetops,
    grow_crowns,
    spatial_join,
    split_train_test,
)
from .errors import (
    ConfigError,
    DataError,
    ForestInvError,
    NumericalError,
)
from .evaluate import (
    ConfusionMatrix,
    PlotDefinition,
    aggregate_plot,
    pearson_r,
    per_class_metrics,
    score,
)
from .geodata import (
    Grid,
    GroundTruthPoint,
    HyperCube,
    PointCloud,
    bilinear_sample,
    read_ascii_grid,
    read_envi_cube,
    read_point_cloud,
    terrain_derivatives,
    write_ascii_grid,
)
from .spectral import (
    BandSelection,
    GaussianClassStats,
    jm_distance,
    normalize_spectrum,
    sffs_select,
    trim_bands,
)

__version__ = "0.1.0"
