"""Road surface refinement from elevation rasters.

Takes a surface model (DSM), a terrain model (DTM) and a road mask, removes
off-road elevation noise from the masked cells, fits a smooth B-spline
height field and triangulates it at dual sampling rates into a compact TIN.
Includes plane and regular-grid baselines, evaluation metrics, and a
synthetic scene generator for testing.
"""

__version__ = "0.1.0"
