"""Exception hierarchy shared by all scenecheck modules.

Every SceneCheckError means bad input (a malformed or inconsistent
document, map, config or request), never a legal one the code cannot
handle: every map the parser accepts gets a verdict.  So callers (and
the CLI) can tell validation failures from genuine bugs.
"""


class SceneCheckError(Exception):
    """Base class for all input-validation errors raised by this package."""


class FormatError(SceneCheckError):
    """Malformed text or JSON document (ragged rows, bad tokens, corrupt file)."""


class UnknownClassError(SceneCheckError):
    """A label map holds a class id that its class map lacks."""


class ConsistencyError(SceneCheckError):
    """Relations and objects passed together do not describe the same scene."""


class SchemaError(SceneCheckError):
    """A value or field violates the declared schema."""


class DuplicateError(SceneCheckError):
    """Duplicate image id in an annotation file."""


class EmptyCorpusError(SceneCheckError):
    """An operation requiring at least one image got none."""


class DegenerateTrainingError(SceneCheckError):
    """Training data contains only one label class, or SGD diverged to
    non-finite weights or bias."""


class DimensionError(SceneCheckError):
    """Feature vector length does not match the model."""


class NotEnoughObjectsError(SceneCheckError):
    """Contradiction generation needs at least two objects."""


class PlacementError(SceneCheckError):
    """A synthetic config asks for an object that its grid cannot hold;
    raised at the first placement that does not fit, with no retry."""


class VersionError(SceneCheckError):
    """Serialized document carries an unsupported schema version."""
