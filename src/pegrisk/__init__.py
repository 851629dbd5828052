"""Market-implied peg-break probabilities for dollar stablecoins.

The pipeline: ingest daily OHLCV bars, align spot and futures closes,
estimate the mean reversion of peg deviations, invert the futures discount
into a per-horizon default probability, and relate its time variation to
crypto-market volatility. A seeded Monte Carlo engine provides an
independent check of the pricing inversion and synthetic fixtures.
"""
