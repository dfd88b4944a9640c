"""Inter-domain bandwidth reservations, desk scale.

Data-plane packet formats and border-router pipeline, the marketplace
ledger that trades and redeems bandwidth assets, and a deterministic
simulator tying them together.
"""
