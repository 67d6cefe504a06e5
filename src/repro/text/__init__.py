"""Text substrate: WordPiece tokenization and vocabulary management."""

from .tokenizer import (
    CLS_TOKEN,
    MASK_TOKEN,
    PAD_TOKEN,
    SEP_TOKEN,
    SPECIAL_TOKENS,
    UNK_TOKEN,
    Vocabulary,
    WordPieceTokenizer,
    basic_tokenize,
    build_tokenizer_from_words,
    train_wordpiece,
)

__all__ = [
    "CLS_TOKEN",
    "MASK_TOKEN",
    "PAD_TOKEN",
    "SEP_TOKEN",
    "SPECIAL_TOKENS",
    "UNK_TOKEN",
    "Vocabulary",
    "WordPieceTokenizer",
    "basic_tokenize",
    "build_tokenizer_from_words",
    "train_wordpiece",
]
