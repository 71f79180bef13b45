"""Matrix-prompt navigation for language-model-piloted aerial agents.

The package builds a persistent semantic world memory from rendered
depth + semantic views, serializes a local window of it as a compact
numeric-matrix prompt, and drives a pluggable LLM backend through a
perceive/map/prompt/act loop inside a synthetic 2.5D outdoor world,
with navigation-error / success-rate / oracle-success-rate evaluation
on top.
"""
