"""Host-cost benchmark of the Stellar reproduction (see README.md)."""
