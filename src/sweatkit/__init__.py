"""sweatkit: relative polarization of a topical wordset across two aligned
word-embedding spaces."""

__version__ = "0.1.0"

from .alignment import (
    AlignmentReport,
    default_anchors,
    procrustes_align,
    round_trip_stability,
)
from .association import (
    PermutationConfig,
    PoleWordsets,
    SweatResult,
    TopicWordset,
    WeatResult,
    effect_size,
    permutation_test,
    run_sweat,
    run_weat,
    single_word_association,
    sweat_score,
)
from .embeddings import (
    EmbeddingSpace,
    cosine,
    load_word2vec_pair,
    load_word2vec_text,
    nearest_neighbors,
    save_word2vec_text,
)
from .errors import (
    ConfigError,
    DataError,
    FormatError,
    SweatKitError,
    VocabularyError,
)
from .lexicon import (
    FrequencyTable,
    Lexicon,
    RefinementReport,
    candidate_topics,
    load_frequency_table,
    load_lexicon,
    refine,
)
from .viz import (
    CumulativePlotData,
    DetailPlotData,
    cumulative_data,
    detail_data,
    render_cumulative,
    render_detail,
)
