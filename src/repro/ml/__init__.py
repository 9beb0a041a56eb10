"""Machine-learning substrate.

Everything the paper's pipeline needs — K-means and Support Vector
Clustering for failure categorization, PCA for the group visualization,
polynomial regression for signature fitting, a CART regression tree for
degradation prediction, distance measures, and the classical
failure-prediction baselines of Section II-C — implemented from scratch
on numpy/scipy (no scikit-learn dependency).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".distance": ("MahalanobisDistance", "euclidean_to_reference"),
    ".hmm": ("GaussianHMM", "HMMDetector"),
    ".kmeans": ("ElbowAnalysis", "KMeans", "elbow_analysis"),
    ".knn": ("KNNRegressor",),
    ".linear": ("RidgeRegressor",),
    ".metrics": ("cluster_purity", "detection_rates", "error_rate",
                 "r_squared", "rmse", "silhouette_score"),
    ".naive_bayes": ("GaussianNaiveBayes",),
    ".pca": ("PCA",),
    ".polyfit": ("PolynomialFit", "fit_polynomial"),
    ".ranksum": ("RankSumDetector",),
    ".svc": ("SupportVectorClustering",),
    ".threshold": ("ThresholdDetector",),
    ".tree": ("RegressionTree",),
})
