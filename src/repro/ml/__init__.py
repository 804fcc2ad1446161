"""From-scratch classical ML: the estimators behind the scheduler (§V-VI).

The paper trains its device-selection model with scikit-learn; this
subpackage reimplements everything that evaluation needs on bare numpy:

* estimators — decision tree, random forest, k-NN, (multinomial) logistic
  regression (the paper's "Linear Regression" predictor), linear SVM, and
  a small feed-forward network classifier;
* metrics — accuracy, confusion matrix, precision/recall/F1;
* model selection — stratified k-fold, cross-validation, grid search and
  the stratified *nested* cross-validation of §V-C;
* preprocessing — standard scaling and label encoding.

The estimator API follows the sklearn conventions (``fit`` / ``predict`` /
``get_params`` / ``set_params``) so the evaluation harness reads like the
paper's methodology.
"""

from repro.ml.base import BaseEstimator, clone
from repro.ml.dummy import DummyClassifier
from repro.ml.flatten import FlatForest
from repro.ml.forest import RandomForestClassifier
from repro.ml.knn import KNeighborsClassifier
from repro.ml.linear import LinearRegressionClassifier, LogisticRegression
from repro.ml.metrics import (
    accuracy_score,
    confusion_matrix,
    f1_score,
    precision_recall_f1,
    precision_score,
    recall_score,
)
from repro.ml.model_selection import (
    GridSearchCV,
    StratifiedKFold,
    cross_val_score,
    nested_cross_validation,
    train_test_split,
)
from repro.ml.nnclf import MLPClassifier
from repro.ml.preprocessing import LabelEncoder, StandardScaler
from repro.ml.svm import LinearSVC
from repro.ml.tree import DecisionTreeClassifier

__all__ = [
    "BaseEstimator",
    "clone",
    "DecisionTreeClassifier",
    "DummyClassifier",
    "FlatForest",
    "RandomForestClassifier",
    "KNeighborsClassifier",
    "LinearRegressionClassifier",
    "LogisticRegression",
    "LinearSVC",
    "MLPClassifier",
    "accuracy_score",
    "confusion_matrix",
    "precision_score",
    "recall_score",
    "f1_score",
    "precision_recall_f1",
    "StratifiedKFold",
    "cross_val_score",
    "GridSearchCV",
    "nested_cross_validation",
    "train_test_split",
    "StandardScaler",
    "LabelEncoder",
]
