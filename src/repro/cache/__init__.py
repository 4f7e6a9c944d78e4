"""Caching substrate: the byte-budgeted LRU used by translation-aware
selective caching (Algorithm 3) and the FIFO window buffer used by
look-ahead-behind prefetching (Algorithm 2).
"""
