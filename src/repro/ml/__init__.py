"""Classical machine-learning substrate (a small scikit-learn replacement).

The paper trains "a set of state-of-the-art classifiers (e.g., SVM and
Random Forest)" with scikit-learn and picks the best one per label.  That
library is not available in this environment, so this package provides
NumPy implementations, with a compatible ``fit`` / ``predict`` /
``predict_proba`` surface, of the classifiers MExI's default bank
(:func:`repro.core.characterizer.default_classifier_bank`) selects from:

* linear models: :class:`LogisticRegression`, :class:`LinearSVC`
* trees and ensembles: :class:`DecisionTreeClassifier`,
  :class:`RandomForestClassifier`
* probability-based: :class:`GaussianNB`
* preprocessing: :class:`StandardScaler`
* model selection: :func:`train_test_split`, :class:`KFold`
* metrics: :func:`accuracy_score` and the multi-label Jaccard accuracy
  :func:`jaccard_multilabel_score` (Eq. 7)
"""

from repro.ml.base import BaseClassifier, BaseTransformer, clone
from repro.ml.preprocessing import StandardScaler
from repro.ml.linear import LinearSVC, LogisticRegression
from repro.ml.tree import DecisionTreeClassifier
from repro.ml.forest import RandomForestClassifier
from repro.ml.naive_bayes import GaussianNB
from repro.ml.metrics import accuracy_score, jaccard_multilabel_score
from repro.ml.model_selection import KFold, train_test_split

__all__ = [
    "BaseClassifier",
    "BaseTransformer",
    "clone",
    "StandardScaler",
    "LogisticRegression",
    "LinearSVC",
    "DecisionTreeClassifier",
    "RandomForestClassifier",
    "GaussianNB",
    "accuracy_score",
    "jaccard_multilabel_score",
    "train_test_split",
    "KFold",
]
